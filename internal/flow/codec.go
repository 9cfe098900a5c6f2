package flow

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"sync"
	"sync/atomic"

	"repro/internal/model"
)

// Codec (de)serializes one record type for networked transports. Append
// encodes v onto buf and returns the extended slice; Decode parses one
// value from data (which holds exactly one encoded record) and returns it
// with the same dynamic type that was registered.
type Codec interface {
	Append(buf []byte, v any) ([]byte, error)
	Decode(data []byte) (any, error)
}

// Kind identifies a registered record type on the wire. Kinds must be
// stable across all processes of one deployment; the msg package owns the
// assignments for the ICPE vocabulary.
type Kind uint8

// registry is one immutable snapshot of the codec tables. Registration
// (init-time only) swaps in a fresh copy under regMu; the data-plane hot
// path loads the current snapshot with a single atomic read — no RWMutex,
// no lock per record.
type registry struct {
	byKind [256]Codec
	kinds  map[reflect.Type]Kind
}

var (
	regMu   sync.Mutex
	regSnap atomic.Pointer[registry]
)

func init() {
	regSnap.Store(&registry{kinds: map[reflect.Type]Kind{}})
}

// cloneRegistry copies the current snapshot for a copy-on-write update.
// Call with regMu held.
func cloneRegistry() *registry {
	old := regSnap.Load()
	next := &registry{
		byKind: old.byKind,
		kinds:  make(map[reflect.Type]Kind, len(old.kinds)+1),
	}
	for t, k := range old.kinds {
		next.kinds[t] = k
	}
	return next
}

// RegisterCodec binds a record type (given by a prototype value, e.g.
// msg.Meta{} or (*model.Snapshot)(nil)) to a kind id. Registration is
// typically done in an init function of the package defining the type; a
// duplicate kind or type panics.
func RegisterCodec(kind Kind, prototype any, c Codec) {
	regMu.Lock()
	defer regMu.Unlock()
	next := cloneRegistry()
	t := reflect.TypeOf(prototype)
	if next.byKind[kind] != nil {
		panic(fmt.Sprintf("flow: codec kind %d registered twice", kind))
	}
	if _, dup := next.kinds[t]; dup {
		panic(fmt.Sprintf("flow: codec for %v registered twice", t))
	}
	next.byKind[kind] = c
	next.kinds[t] = kind
	regSnap.Store(next)
}

func codecFor(v any) (Kind, Codec, error) {
	r := regSnap.Load()
	kind, ok := r.kinds[reflect.TypeOf(v)]
	if !ok {
		return 0, nil, fmt.Errorf("flow: no codec registered for %T", v)
	}
	return kind, r.byKind[kind], nil
}

func codecOf(kind Kind) (Codec, error) {
	c := regSnap.Load().byKind[kind]
	if c == nil {
		return nil, fmt.Errorf("flow: unknown codec kind %d", kind)
	}
	return c, nil
}

// AppendPayload encodes one record as [kind][body] using its registered
// codec. It is the building block of message encoding and is also used
// directly for out-of-band records (e.g. sink forwarding).
func AppendPayload(buf []byte, v any) ([]byte, error) {
	kind, c, err := codecFor(v)
	if err != nil {
		return buf, err
	}
	buf = append(buf, byte(kind))
	return c.Append(buf, v)
}

// DecodePayload decodes one record encoded by AppendPayload.
func DecodePayload(data []byte) (any, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("flow: empty payload")
	}
	c, err := codecOf(Kind(data[0]))
	if err != nil {
		return nil, err
	}
	return c.Decode(data[1:])
}

// Message envelope flags.
const (
	flagWatermark = 1 << iota
	flagBatch
	flagBarrier
)

// encScratch pools the per-item encode buffer of batched messages, shared
// across all edges and senders (AppendMessage is called concurrently).
var encScratch = sync.Pool{New: func() any {
	b := make([]byte, 0, 1<<10)
	return &b
}}

// AppendMessage encodes a transport message — data record, Batch carrier,
// watermark, or checkpoint-barrier envelope — onto buf:
//
//	[flags][From uvarint]
//	watermark: [WM varint]
//	barrier:   [CP uvarint][mode byte][CPBase uvarint]
//	batch:     [count uvarint] then per item [len uvarint][kind][body]
//	record:    [kind][body]
//
// A barrier's mode byte is 1 for an incremental (delta) checkpoint and 0
// for a full one; CPBase is meaningful only in delta mode.
//
// Every record type crossing a networked edge must have a registered Codec.
func AppendMessage(buf []byte, m Message) ([]byte, error) {
	var flags byte
	batch, isBatch := m.Data.(Batch)
	switch {
	case m.IsWM:
		flags = flagWatermark
	case m.IsBarrier:
		flags = flagBarrier
	case isBatch:
		flags = flagBatch
	}
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, uint64(m.From))
	switch {
	case m.IsWM:
		return binary.AppendVarint(buf, int64(m.WM)), nil
	case m.IsBarrier:
		buf = binary.AppendUvarint(buf, m.CP)
		mode := byte(0)
		if m.CPDelta {
			mode = 1
		}
		buf = append(buf, mode)
		return binary.AppendUvarint(buf, m.CPBase), nil
	case isBatch:
		buf = binary.AppendUvarint(buf, uint64(len(batch.Items)))
		// The per-item scratch comes from a pool: encoding dominates the
		// data plane's hot path (tcpnet reuses its frame buffers per edge,
		// so this was the last per-message allocation), and the pooled
		// buffer keeps its grown capacity across messages.
		sp := encScratch.Get().(*[]byte)
		scratch := (*sp)[:0]
		// Batches are usually homogeneous (they coalesce one edge's
		// records), so cache the previous item's registry lookup instead of
		// hashing the type per record.
		var (
			lastT    reflect.Type
			lastKind Kind
			lastC    Codec
			r        = regSnap.Load()
		)
		for _, item := range batch.Items {
			t := reflect.TypeOf(item)
			if t != lastT {
				kind, ok := r.kinds[t]
				if !ok {
					*sp = scratch
					encScratch.Put(sp)
					return buf, fmt.Errorf("flow: no codec registered for %T", item)
				}
				lastT, lastKind, lastC = t, kind, r.byKind[kind]
			}
			var err error
			scratch = append(scratch[:0], byte(lastKind))
			scratch, err = lastC.Append(scratch, item)
			if err != nil {
				*sp = scratch
				encScratch.Put(sp)
				return buf, err
			}
			buf = binary.AppendUvarint(buf, uint64(len(scratch)))
			buf = append(buf, scratch...)
		}
		*sp = scratch
		encScratch.Put(sp)
		return buf, nil
	default:
		return AppendPayload(buf, m.Data)
	}
}

// DecodeMessage parses one message encoded by AppendMessage.
func DecodeMessage(data []byte) (Message, error) {
	d := NewDec(data)
	flags := d.Byte()
	from := int(d.Uvarint())
	switch {
	case flags&flagWatermark != 0:
		wm := d.Varint()
		if err := d.Err(); err != nil {
			return Message{}, err
		}
		return Message{From: from, WM: model.Tick(wm), IsWM: true}, nil
	case flags&flagBarrier != 0:
		cp := d.Uvarint()
		mode := d.Byte()
		base := d.Uvarint()
		if err := d.Err(); err != nil {
			return Message{}, err
		}
		return Message{From: from, CP: cp, CPDelta: mode == 1, CPBase: base, IsBarrier: true}, nil
	case flags&flagBatch != 0:
		n := int(d.Uvarint())
		if err := d.Err(); err != nil {
			return Message{}, err
		}
		if n < 0 || n > d.Remaining() { // each item needs at least a length byte
			return Message{}, fmt.Errorf("flow: batch count %d exceeds payload", n)
		}
		items := make([]any, 0, n)
		for i := 0; i < n; i++ {
			body := d.Bytes(int(d.Uvarint()))
			if err := d.Err(); err != nil {
				return Message{}, err
			}
			item, err := DecodePayload(body)
			if err != nil {
				return Message{}, err
			}
			items = append(items, item)
		}
		return Message{From: from, Data: Batch{Items: items}}, nil
	default:
		if err := d.Err(); err != nil {
			return Message{}, err
		}
		v, err := DecodePayload(d.Rest())
		if err != nil {
			return Message{}, err
		}
		return Message{From: from, Data: v}, nil
	}
}

// Dec is a cursor over an encoded payload, used by Codec implementations.
// Errors are sticky: after the first short read every accessor returns a
// zero value and Err reports the failure.
type Dec struct {
	b   []byte
	off int
	err error
}

// NewDec wraps data for sequential decoding.
func NewDec(data []byte) *Dec { return &Dec{b: data} }

func (d *Dec) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("flow: truncated payload at offset %d", d.off)
	}
}

// Byte reads one byte.
func (d *Dec) Byte() byte {
	if d.err != nil || d.off >= len(d.b) {
		d.fail()
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

// Uvarint reads an unsigned varint.
func (d *Dec) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

// Varint reads a signed varint.
func (d *Dec) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

// Float64 reads a fixed 8-byte little-endian float.
func (d *Dec) Float64() float64 {
	if d.err != nil || d.off+8 > len(d.b) {
		d.fail()
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.off:]))
	d.off += 8
	return v
}

// Bytes reads the next n bytes (without copying).
func (d *Dec) Bytes(n int) []byte {
	if d.err != nil || n < 0 || d.off+n > len(d.b) {
		d.fail()
		return nil
	}
	v := d.b[d.off : d.off+n]
	d.off += n
	return v
}

// Remaining returns the number of unconsumed bytes. Decoders use it to
// bound allocations before trusting a length prefix from the wire.
func (d *Dec) Remaining() int {
	if d.err != nil {
		return 0
	}
	return len(d.b) - d.off
}

// Failf marks the decoder as failed (sticky, like a short read). Decoders
// call it when a length prefix is inconsistent with the remaining payload,
// so the corruption surfaces in Err instead of being silently skipped.
func (d *Dec) Failf(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("flow: "+format+" at offset %d", append(args, d.off)...)
	}
}

// Rest returns everything not yet consumed.
func (d *Dec) Rest() []byte {
	if d.err != nil {
		return nil
	}
	v := d.b[d.off:]
	d.off = len(d.b)
	return v
}

// Err reports the first decoding failure, if any.
func (d *Dec) Err() error { return d.err }

// AppendFloat64 appends a fixed 8-byte little-endian float, the inverse of
// Dec.Float64.
func AppendFloat64(buf []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
}
