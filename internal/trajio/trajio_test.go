package trajio

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/geo"
	"repro/internal/model"
)

func sampleRecs() []Rec {
	return []Rec{
		{Object: 1, Tick: 0, Loc: geo.Point{X: 1.5, Y: -2.25}},
		{Object: 2, Tick: 0, Loc: geo.Point{X: 0, Y: 0}},
		{Object: 1, Tick: 1, Loc: geo.Point{X: 2.5, Y: -1}},
		{Object: 3, Tick: 5, Loc: geo.Point{X: 1e6, Y: 1e-6}},
	}
}

func TestCSVRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, sampleRecs()); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := sampleRecs()
	if len(got) != len(want) {
		t.Fatalf("got %d records", len(got))
	}
	for i := range want {
		if got[i].Object != want[i].Object || got[i].Tick != want[i].Tick {
			t.Errorf("record %d: %+v vs %+v", i, got[i], want[i])
		}
		if got[i].Loc.Dist(want[i].Loc, geo.L2) > 1e-5 {
			t.Errorf("record %d location drift: %+v", i, got[i].Loc)
		}
	}
}

func TestReadCSVSkipsCommentsAndBlanks(t *testing.T) {
	in := "# header\n\n1,1,0,0\n  \n2,1,1,1\n"
	got, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Errorf("got %d records", len(got))
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"1,1,0",            // missing field
		"x,1,0,0",          // bad object
		"1,y,0,0",          // bad tick
		"1,1,z,0",          // bad x
		"1,1,0,w",          // bad y
		"1,5,0,0\n1,4,0,0", // ticks regress
		"1,1,NaN,0",        // NaN x
		"1,1,0,nan",        // NaN y
		"1,1,Inf,0",        // +Inf x
		"1,1,0,-Inf",       // -Inf y
		"1,1,1e999,0",      // overflows to +Inf
	}
	for _, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("input %q accepted", in)
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewBinWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range sampleRecs() {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewBinReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var got []Rec
	for {
		rec, err := r.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, rec)
	}
	if !reflect.DeepEqual(got, sampleRecs()) {
		t.Errorf("round trip:\n got %+v\nwant %+v", got, sampleRecs())
	}
}

func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(200)
		recs := make([]Rec, n)
		tick := model.Tick(0)
		for i := range recs {
			if rng.Intn(4) == 0 {
				tick += model.Tick(rng.Intn(10))
			}
			recs[i] = Rec{
				Object: model.ObjectID(rng.Uint32()),
				Tick:   tick,
				Loc:    geo.Point{X: rng.NormFloat64() * 1e4, Y: rng.NormFloat64() * 1e4},
			}
		}
		var buf bytes.Buffer
		w, err := NewBinWriter(&buf)
		if err != nil {
			return false
		}
		for _, r := range recs {
			if w.Write(r) != nil {
				return false
			}
		}
		if w.Flush() != nil {
			return false
		}
		r, err := NewBinReader(&buf)
		if err != nil {
			return false
		}
		for i := 0; ; i++ {
			rec, err := r.Read()
			if errors.Is(err, io.EOF) {
				return i == len(recs)
			}
			if err != nil || rec != recs[i] {
				return false
			}
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestBinReaderRejectsBadMagic(t *testing.T) {
	if _, err := NewBinReader(strings.NewReader("NOPE....")); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := NewBinReader(strings.NewReader("")); err == nil {
		t.Error("empty stream accepted")
	}
}

func TestBinReaderTruncated(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewBinWriter(&buf)
	_ = w.Write(sampleRecs()[0])
	_ = w.Flush()
	data := buf.Bytes()[:buf.Len()-3] // chop mid-record
	r, err := NewBinReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(); err == nil {
		t.Error("truncated record accepted")
	}
}

// A TRJ1 record with a non-finite coordinate is an error, and the reader
// stays in sync: the record after it decodes normally.
func TestBinReaderRejectsNonFinite(t *testing.T) {
	for _, bad := range []geo.Point{
		{X: math.NaN(), Y: 0},
		{X: 0, Y: math.NaN()},
		{X: math.Inf(1), Y: 0},
		{X: 0, Y: math.Inf(-1)},
	} {
		var buf bytes.Buffer
		w, _ := NewBinWriter(&buf)
		_ = w.Write(Rec{Object: 1, Tick: 3, Loc: bad})
		_ = w.Write(Rec{Object: 2, Tick: 4, Loc: geo.Point{X: 1, Y: 2}})
		_ = w.Flush()
		r, err := NewBinReader(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if rec, err := r.Read(); err == nil {
			t.Errorf("non-finite record %+v accepted", rec)
		}
		rec, err := r.Read()
		if err != nil || rec != (Rec{Object: 2, Tick: 4, Loc: geo.Point{X: 1, Y: 2}}) {
			t.Errorf("record after the rejected one = %+v, %v", rec, err)
		}
	}
}

// FuzzBinReader feeds arbitrary bytes to the TRJ1 decoder (the netsrc
// wire format): it must never panic, and every record it accepts has
// finite coordinates and survives a re-encode/decode round trip.
func FuzzBinReader(f *testing.F) {
	var buf bytes.Buffer
	w, _ := NewBinWriter(&buf)
	for _, r := range sampleRecs() {
		_ = w.Write(r)
	}
	_ = w.Flush()
	f.Add(buf.Bytes())
	f.Add([]byte("TRJ1"))
	f.Add([]byte("TRJ1\x01\x00\x00\x00\x00\x00\x00\x00\xf8\x7f\x00\x00\x00\x00\x00\x00\x00\x00")) // NaN x
	f.Add([]byte("TRJ1\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"))                                 // overlong uvarint
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewBinReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i := 0; i < len(data); i++ {
			rec, err := r.Read()
			if err != nil {
				return
			}
			if checkFinite(rec.Loc) != nil {
				t.Fatalf("accepted non-finite record %+v", rec)
			}
			var out bytes.Buffer
			w, _ := NewBinWriter(&out)
			_ = w.Write(rec)
			_ = w.Flush()
			r2, _ := NewBinReader(&out)
			if got, err := r2.Read(); err != nil || got != rec {
				t.Fatalf("round trip of %+v = %+v, %v", rec, got, err)
			}
		}
	})
}

func TestSnapshotConversionRoundTrip(t *testing.T) {
	snaps := []*model.Snapshot{
		{Tick: 1},
		{Tick: 3},
	}
	snaps[0].Add(1, geo.Point{X: 1, Y: 1})
	snaps[0].Add(2, geo.Point{X: 2, Y: 2})
	snaps[1].Add(1, geo.Point{X: 3, Y: 3})
	recs := SnapshotsToRecs(snaps)
	if len(recs) != 3 {
		t.Fatalf("recs = %d", len(recs))
	}
	back, err := RecsToSnapshots(recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[0].Len() != 2 || back[1].Len() != 1 {
		t.Errorf("snapshots = %+v", back)
	}
	if back[0].Tick != 1 || back[1].Tick != 3 {
		t.Errorf("ticks = %d, %d", back[0].Tick, back[1].Tick)
	}
	// Out-of-order records rejected.
	if _, err := RecsToSnapshots([]Rec{{Tick: 5}, {Tick: 4}}); err == nil {
		t.Error("regressing ticks accepted")
	}
}

func TestPatternsCSVRoundTrip(t *testing.T) {
	ps := []model.Pattern{
		{Objects: []model.ObjectID{1, 2, 3}, Times: []model.Tick{4, 5, 7}},
		{Objects: []model.ObjectID{9}, Times: []model.Tick{1}},
	}
	var buf bytes.Buffer
	if err := WritePatternsCSV(&buf, ps); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPatternsCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ps) {
		t.Errorf("round trip:\n got %+v\nwant %+v", got, ps)
	}
}

func TestReadPatternsCSVErrors(t *testing.T) {
	for _, in := range []string{"1|2", "a|b,1", "1|2,x"} {
		if _, err := ReadPatternsCSV(strings.NewReader(in)); err == nil {
			t.Errorf("input %q accepted", in)
		}
	}
}

func TestBinarySmallerThanCSVForLargeStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var recs []Rec
	for tk := model.Tick(0); tk < 100; tk++ {
		for id := model.ObjectID(1); id <= 50; id++ {
			recs = append(recs, Rec{
				Object: id, Tick: tk,
				Loc: geo.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000},
			})
		}
	}
	var csvBuf, binBuf bytes.Buffer
	if err := WriteCSV(&csvBuf, recs); err != nil {
		t.Fatal(err)
	}
	w, _ := NewBinWriter(&binBuf)
	for _, r := range recs {
		_ = w.Write(r)
	}
	_ = w.Flush()
	if binBuf.Len() >= csvBuf.Len() {
		t.Errorf("binary (%d) not smaller than CSV (%d)", binBuf.Len(), csvBuf.Len())
	}
}
