package tcpnet_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/flow"
	"repro/internal/flow/flowtest"
)

// A data connection opening with a garbage stage-name length must not
// allocate what the prefix claims: the receiver logs, drops that
// connection, and keeps serving real edges.
func TestPreambleLengthBounded(t *testing.T) {
	send, recv := tcpNodes(t, "edge")
	logs := make(chan string, 8)
	recv.SetLogf(func(format string, args ...any) {
		select {
		case logs <- fmt.Sprintf(format, args...):
		default:
		}
	})

	conn, err := net.Dial("tcp", recv.DataAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(binary.AppendUvarint(nil, 1<<62)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("hostile connection not dropped: read err %v", err)
	}
	select {
	case l := <-logs:
		if !strings.Contains(l, "exceeds limit") {
			t.Fatalf("log line %q does not report the oversized length", l)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no log line for the dropped connection")
	}

	out := send.Transport().Edge("edge", 2, 4)
	in := recv.Transport().Edge("edge", 2, 4)
	out[1].Send(flow.Message{From: 0, Data: flowtest.Payload{Seq: 7}})
	for _, ep := range out {
		ep.Close()
	}
	m, ok := in[1].Recv()
	if p, isP := m.Data.(flowtest.Payload); !ok || !isP || p.Seq != 7 {
		t.Fatalf("after the dropped connection, received %+v (ok=%v), want seq 7", m, ok)
	}
	for i, ep := range in {
		if _, ok := ep.Recv(); ok {
			t.Fatalf("endpoint %d: unexpected message after EOS", i)
		}
	}
}
