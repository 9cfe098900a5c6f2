// Package trajio reads and writes the trajectory and pattern formats the
// tools exchange:
//
//   - CSV records: "object,tick,x,y" per line, ordered by tick — the
//     human-readable interchange format of cmd/datagen and cmd/icpe;
//   - a compact binary record framing (varint-delta encoded) for larger
//     traces and network transport;
//   - CSV patterns: "object1|object2|...,tick1|tick2|..." per line.
//
// All readers validate their input and fail with line/offset context.
package trajio

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/geo"
	"repro/internal/model"
)

// Rec is one trajectory record as transported (tick-stamped, no last-time:
// the reader reconstructs chains).
type Rec struct {
	Object model.ObjectID
	Tick   model.Tick
	Loc    geo.Point
}

// WriteCSV writes records as "object,tick,x,y" lines.
func WriteCSV(w io.Writer, recs []Rec) error {
	bw := bufio.NewWriter(w)
	for _, r := range recs {
		if _, err := fmt.Fprintf(bw, "%d,%d,%.6f,%.6f\n",
			r.Object, r.Tick, r.Loc.X, r.Loc.Y); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadCSV parses "object,tick,x,y" lines; blank lines and '#' comments are
// skipped. It enforces non-decreasing ticks and finite coordinates.
func ReadCSV(r io.Reader) ([]Rec, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var out []Rec
	line := 0
	lastTick := model.Tick(math.MinInt64)
	for sc.Scan() {
		line++
		txt := strings.TrimSpace(sc.Text())
		if txt == "" || strings.HasPrefix(txt, "#") {
			continue
		}
		rec, err := parseCSVLine(txt)
		if err != nil {
			return nil, fmt.Errorf("trajio: line %d: %w", line, err)
		}
		if rec.Tick < lastTick {
			return nil, fmt.Errorf("trajio: line %d: tick %d after %d", line, rec.Tick, lastTick)
		}
		lastTick = rec.Tick
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trajio: %w", err)
	}
	return out, nil
}

func parseCSVLine(txt string) (Rec, error) {
	parts := strings.Split(txt, ",")
	if len(parts) != 4 {
		return Rec{}, errors.New("want object,tick,x,y")
	}
	id, err := strconv.ParseUint(strings.TrimSpace(parts[0]), 10, 32)
	if err != nil {
		return Rec{}, fmt.Errorf("object: %w", err)
	}
	tick, err := strconv.ParseInt(strings.TrimSpace(parts[1]), 10, 64)
	if err != nil {
		return Rec{}, fmt.Errorf("tick: %w", err)
	}
	x, err := strconv.ParseFloat(strings.TrimSpace(parts[2]), 64)
	if err != nil {
		return Rec{}, fmt.Errorf("x: %w", err)
	}
	y, err := strconv.ParseFloat(strings.TrimSpace(parts[3]), 64)
	if err != nil {
		return Rec{}, fmt.Errorf("y: %w", err)
	}
	loc := geo.Point{X: x, Y: y}
	if err := checkFinite(loc); err != nil {
		return Rec{}, err
	}
	return Rec{
		Object: model.ObjectID(id),
		Tick:   model.Tick(tick),
		Loc:    loc,
	}, nil
}

// checkFinite rejects NaN and ±Inf coordinates: strconv.ParseFloat and
// the binary framing both admit them, and no grid cell holds them.
func checkFinite(p geo.Point) error {
	if math.IsNaN(p.X) || math.IsInf(p.X, 0) || math.IsNaN(p.Y) || math.IsInf(p.Y, 0) {
		return fmt.Errorf("non-finite coordinates (%v, %v)", p.X, p.Y)
	}
	return nil
}

// Binary framing: magic, then per record
//
//	uvarint object | varint tickDelta (vs previous record) | 8B x | 8B y
//
// Tick deltas compress the common in-order case to one byte.
var binMagic = [4]byte{'T', 'R', 'J', '1'}

// BinWriter streams records in binary form.
type BinWriter struct {
	w        *bufio.Writer
	lastTick model.Tick
	started  bool
	scratch  [2*binary.MaxVarintLen64 + 16]byte // object uvarint, tick-delta varint, x, y
}

// NewBinWriter writes the header and returns a writer.
func NewBinWriter(w io.Writer) (*BinWriter, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(binMagic[:]); err != nil {
		return nil, err
	}
	return &BinWriter{w: bw}, nil
}

// Write appends one record.
func (b *BinWriter) Write(r Rec) error {
	n := binary.PutUvarint(b.scratch[:], uint64(r.Object))
	delta := int64(r.Tick)
	if b.started {
		delta = int64(r.Tick - b.lastTick)
	}
	n += binary.PutVarint(b.scratch[n:], delta)
	binary.LittleEndian.PutUint64(b.scratch[n:], math.Float64bits(r.Loc.X))
	n += 8
	binary.LittleEndian.PutUint64(b.scratch[n:], math.Float64bits(r.Loc.Y))
	n += 8
	b.lastTick = r.Tick
	b.started = true
	_, err := b.w.Write(b.scratch[:n])
	return err
}

// Flush flushes buffered output.
func (b *BinWriter) Flush() error { return b.w.Flush() }

// BinReader streams records back.
type BinReader struct {
	r        *bufio.Reader
	lastTick model.Tick
	started  bool
}

// NewBinReader validates the header and returns a reader.
func NewBinReader(r io.Reader) (*BinReader, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("trajio: header: %w", err)
	}
	if magic != binMagic {
		return nil, errors.New("trajio: bad magic (not a TRJ1 stream)")
	}
	return &BinReader{r: br}, nil
}

// Read returns the next record or io.EOF at stream end. A record with
// non-finite coordinates is consumed and reported as an error; the stream
// stays positioned on the next record.
func (b *BinReader) Read() (Rec, error) {
	obj, err := binary.ReadUvarint(b.r)
	if err != nil {
		if errors.Is(err, io.EOF) {
			return Rec{}, io.EOF
		}
		return Rec{}, fmt.Errorf("trajio: object: %w", err)
	}
	delta, err := binary.ReadVarint(b.r)
	if err != nil {
		return Rec{}, fmt.Errorf("trajio: tick: %w", err)
	}
	var xy [16]byte
	if _, err := io.ReadFull(b.r, xy[:]); err != nil {
		return Rec{}, fmt.Errorf("trajio: coords: %w", err)
	}
	tick := model.Tick(delta)
	if b.started {
		tick = b.lastTick + model.Tick(delta)
	}
	b.lastTick = tick
	b.started = true
	loc := geo.Point{
		X: math.Float64frombits(binary.LittleEndian.Uint64(xy[:8])),
		Y: math.Float64frombits(binary.LittleEndian.Uint64(xy[8:])),
	}
	if err := checkFinite(loc); err != nil {
		return Rec{}, fmt.Errorf("trajio: object %d tick %d: %w", obj, tick, err)
	}
	return Rec{Object: model.ObjectID(obj), Tick: tick, Loc: loc}, nil
}

// SnapshotsToRecs flattens snapshots into transport records.
func SnapshotsToRecs(snaps []*model.Snapshot) []Rec {
	var out []Rec
	for _, s := range snaps {
		for i, id := range s.Objects {
			out = append(out, Rec{Object: id, Tick: s.Tick, Loc: s.Locs[i]})
		}
	}
	return out
}

// RecsToSnapshots groups tick-ordered records into snapshots.
func RecsToSnapshots(recs []Rec) ([]*model.Snapshot, error) {
	var out []*model.Snapshot
	var cur *model.Snapshot
	for i, r := range recs {
		if cur != nil && r.Tick < cur.Tick {
			return nil, fmt.Errorf("trajio: record %d: tick %d after %d", i, r.Tick, cur.Tick)
		}
		if cur == nil || r.Tick > cur.Tick {
			cur = &model.Snapshot{Tick: r.Tick}
			out = append(out, cur)
		}
		cur.Add(r.Object, r.Loc)
	}
	return out, nil
}

// WritePatternsCSV writes patterns as "o1|o2|...,t1|t2|..." lines.
func WritePatternsCSV(w io.Writer, ps []model.Pattern) error {
	bw := bufio.NewWriter(w)
	for _, p := range ps {
		objs := make([]string, len(p.Objects))
		for i, o := range p.Objects {
			objs[i] = strconv.FormatUint(uint64(o), 10)
		}
		ticks := make([]string, len(p.Times))
		for i, t := range p.Times {
			ticks[i] = strconv.FormatInt(int64(t), 10)
		}
		if _, err := fmt.Fprintf(bw, "%s,%s\n",
			strings.Join(objs, "|"), strings.Join(ticks, "|")); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadPatternsCSV parses the pattern format back.
func ReadPatternsCSV(r io.Reader) ([]model.Pattern, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var out []model.Pattern
	line := 0
	for sc.Scan() {
		line++
		txt := strings.TrimSpace(sc.Text())
		if txt == "" || strings.HasPrefix(txt, "#") {
			continue
		}
		parts := strings.Split(txt, ",")
		if len(parts) != 2 {
			return nil, fmt.Errorf("trajio: line %d: want objects,ticks", line)
		}
		var p model.Pattern
		for _, f := range strings.Split(parts[0], "|") {
			v, err := strconv.ParseUint(f, 10, 32)
			if err != nil {
				return nil, fmt.Errorf("trajio: line %d: object %q", line, f)
			}
			p.Objects = append(p.Objects, model.ObjectID(v))
		}
		for _, f := range strings.Split(parts[1], "|") {
			v, err := strconv.ParseInt(f, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("trajio: line %d: tick %q", line, f)
			}
			p.Times = append(p.Times, model.Tick(v))
		}
		out = append(out, p)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
