package transport

import (
	"os"
	"os/exec"
	"testing"
)

// pushChildEnv carries the server address to a child process of
// TestGradsFromTwoProcessesBothApplied; set, it turns the test into the
// child's one push.
const pushChildEnv = "JANUS_TRANSPORT_PUSH_TO"

// TestGradsFromTwoProcessesBothApplied: two processes each push one
// gradient to the same server, and the server applies both. Each
// process's first client pushes its first gradient, so any part of the
// token that only counts within a process is equal in both pushes, and
// the server would take the second for a retransmission of the first.
func TestGradsFromTwoProcessesBothApplied(t *testing.T) {
	id := ExpertID{Expert: 1}
	if addr := os.Getenv(pushChildEnv); addr != "" {
		c := NewClient(1)
		defer c.Close()
		if err := c.PushGradient(ctx, addr, id, []byte{1, 2, 3, 4}); err != nil {
			t.Fatal(err)
		}
		return
	}
	store := newMemStore()
	store.experts[id] = []byte{1}
	srv, addr := startServer(t, store)
	for i := 0; i < 2; i++ {
		cmd := exec.Command(os.Args[0], "-test.run=^TestGradsFromTwoProcessesBothApplied$", "-test.count=1")
		cmd.Env = append(os.Environ(), pushChildEnv+"="+addr)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("child %d: %v\n%s", i, err, out)
		}
	}
	store.mu.Lock()
	applied := store.grads[id]
	store.mu.Unlock()
	if applied != 2 || srv.GradsDeduped() != 0 {
		t.Fatalf("applied %d gradients (%d deduped), want 2 (0): one process's push was taken for the other's retransmission",
			applied, srv.GradsDeduped())
	}
}
