package tcpnet_test

import (
	"testing"

	"repro/internal/flow"
	"repro/internal/flow/flowtest"
	"repro/internal/transport/tcpnet"
)

// tcpNodes builds a sender (worker 0) and a receiver (worker 1, owning
// stage) connected over loopback, silenced and torn down with the test.
func tcpNodes(t *testing.T, stage string) (send, recv *tcpnet.Node) {
	plan := tcpnet.Plan{Workers: 2, Stages: []string{stage}, Owners: []int{1}}
	recv, err := tcpnet.NewNode(1, plan, "")
	if err != nil {
		t.Fatal(err)
	}
	recv.SetLogf(func(string, ...any) {})
	send, err = tcpnet.NewNode(0, plan, "")
	if err != nil {
		recv.Close()
		t.Fatal(err)
	}
	send.SetLogf(func(string, ...any) {})
	addrs := []string{send.DataAddr(), recv.DataAddr()}
	send.SetAddrs(addrs)
	recv.SetAddrs(addrs)
	t.Cleanup(func() {
		send.Close()
		recv.Close()
	})
	return send, recv
}

// The TCP transport must satisfy the same endpoint contract as the
// in-process channels: the suite runs each edge across two real nodes
// (sender process-view and receiver process-view) connected over loopback
// TCP, exercising the codec framing, demux FIFO, EOS close, socket
// backpressure and the coalescing writer's flush triggers (barrier and
// idle flush are conformance cases).
func TestTCPConformance(t *testing.T) {
	flowtest.Run(t, flowtest.Harness{
		Edge: func(t *testing.T, stage string, parallelism, buf int) (send, recv []flow.Endpoint) {
			s, r := tcpNodes(t, stage)
			return s.Transport().Edge(stage, parallelism, buf), r.Transport().Edge(stage, parallelism, buf)
		},
	})
}

func TestRoundRobinPlan(t *testing.T) {
	p := tcpnet.RoundRobin([]string{"a", "b", "c", "d"}, 2)
	want := []int{0, 1, 0, 1}
	for i, o := range p.Owners {
		if o != want[i] {
			t.Errorf("stage %d owned by %d, want %d", i, o, want[i])
		}
	}
	if !p.OwnsAny(0) || !p.OwnsAny(1) {
		t.Error("both workers should own stages")
	}
}
