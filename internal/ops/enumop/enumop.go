// Package enumop implements the pattern-enumeration stage (Section 6):
// partitions arrive keyed by owner trajectory id, are restored to tick
// order behind the parallel clustering stage by a reorder buffer, and are
// fed to one enumerator (BA, FBA or VBA) per owner. Detected patterns are
// emitted to the sink.
package enumop

import (
	"repro/internal/enum"
	"repro/internal/flow"
	"repro/internal/model"
)

// Config parameterizes the enumeration operator.
type Config struct {
	// Constraints is the CP(M,K,L,G) pattern definition.
	Constraints model.Constraints
	// New constructs the per-owner enumerator (enum.NewBA/NewFBA/NewVBA).
	New enum.NewFunc
	// OnOverflow, when set, is invoked at close if any BA owner-subtask
	// overflowed and skipped windows.
	OnOverflow func()
}

// Op is the enumeration operator for one subtask.
type Op struct {
	cfg     Config
	reorder *flow.ReorderBuffer
	subs    map[model.ObjectID]enum.Enumerator

	// out is the collector of the call in progress; emit, built once,
	// forwards patterns to it.
	out  *flow.Collector
	emit enum.Emit
}

// New builds an enumeration operator.
func New(cfg Config) *Op {
	e := &Op{
		cfg:     cfg,
		reorder: flow.NewReorderBuffer(),
		subs:    make(map[model.ObjectID]enum.Enumerator),
	}
	e.emit = func(p model.Pattern) { e.out.Emit(0, p) }
	return e
}

// Process buffers one partition until its tick is watermark-covered.
func (e *Op) Process(data any, out *flow.Collector) {
	p := data.(enum.Partition)
	e.reorder.Add(p.Tick, p)
}

// OnWatermark releases tick-ordered partitions to their enumerators.
func (e *Op) OnWatermark(wm model.Tick, out *flow.Collector) {
	e.out = out
	for _, item := range e.reorder.Release(wm) {
		e.feed(item.(enum.Partition))
	}
}

// Close drains the reorder buffer and flushes every enumerator.
func (e *Op) Close(out *flow.Collector) {
	e.out = out
	for _, item := range e.reorder.ReleaseAll() {
		e.feed(item.(enum.Partition))
	}
	for _, sub := range e.subs {
		sub.Flush(e.emit)
	}
	e.noteOverflow()
}

func (e *Op) feed(p enum.Partition) {
	sub := e.subs[p.Owner]
	if sub == nil {
		sub = e.cfg.New(p.Owner, e.cfg.Constraints)
		e.subs[p.Owner] = sub
	}
	sub.Process(p, e.emit)
}

func (e *Op) noteOverflow() {
	if e.cfg.OnOverflow == nil {
		return
	}
	for _, sub := range e.subs {
		if ba, ok := sub.(*enum.BA); ok && ba.Overflowed {
			e.cfg.OnOverflow()
			return
		}
	}
}
