package main

import (
	"testing"
)

// tinyRun runs one workload on a stream of a few dozen ticks.
func tinyRun(t *testing.T, w *workload, trace bool) *result {
	t.Helper()
	dir := t.TempDir()
	res, err := run(w, options{seed: 7, seconds: 2, trace: trace, spanDir: dir, ckRoot: dir})
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	return res
}

// TestEveryWorkloadReportsEveryMetric runs each workload untraced and
// traced at tiny scale: every declared metric must be measured, every
// metric must carry a unit, and every phase (capacity, open loop, traced
// open loop) must reproduce the sequential reference — which also makes
// the traced and untraced pattern sets equal.
func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		for _, trace := range []bool{false, true} {
			res := tinyRun(t, w, trace)
			specs := endToEnd
			if trace {
				specs = perLayer
			}
			for _, s := range specs {
				if s.Unit == "" {
					t.Errorf("metric %s has no unit", s.Name)
				}
				if _, ok := res.metrics[s.Name]; !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.name, trace, s.Name)
				}
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d ticks failed", w.name, trace, res.failed, res.attempted)
			}
		}
	}
}

// TestGateRejectsMissingPattern feeds the reference's own patterns back
// through a recorder, once whole and once with one pattern left out.
func TestGateRejectsMissingPattern(t *testing.T) {
	w, err := workloadByName("convoy")
	if err != nil {
		t.Fatal(err)
	}
	snaps := w.gen(3, 60)
	ref, err := runReference(snaps, w.det)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.pats) < 2 {
		t.Fatalf("reference has %d patterns; the check needs some", len(ref.pats))
	}
	for _, drop := range []int{-1, 0, len(ref.pats) / 2} {
		rec := newRecorder(snaps)
		for _, s := range snaps {
			rec.onTick(s.Tick)
		}
		for i, p := range ref.pats {
			if i != drop {
				rec.onPattern(p)
			}
		}
		res := &result{attempted: 7}
		check(rec, ref, res)
		if want := drop >= 0; (res.failed == res.attempted) != want || (res.failed == 0) == want {
			t.Errorf("drop=%d: failed %d of %d ticks", drop, res.failed, res.attempted)
		}
	}
}
