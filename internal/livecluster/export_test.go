package livecluster

import (
	"encoding/binary"
	"fmt"
	"time"

	"janus/internal/moe"
	"janus/internal/tensor"
	"janus/internal/transport"
)

// Views, knobs and codecs only the tests use: the load, replica-plan
// and pull-count reads feed assertions, the serve delay stands in for a
// slow owner, and the allocating codecs are the round-trip references
// for the pooled ones the wire path uses.

// ExpertLoadCounts returns the cumulative routed-token count per expert.
func (cl *Cluster) ExpertLoadCounts() []int64 { return cl.load.Counts() }

// ReplicaView returns a copy of the current replica plan
// (expert -> ascending replica machines).
func (cl *Cluster) ReplicaView() map[int][]int {
	cl.viewMu.Lock()
	defer cl.viewMu.Unlock()
	out := make(map[int][]int, len(cl.replicas))
	for e, set := range cl.replicas {
		out[e] = append([]int(nil), set...)
	}
	return out
}

// SetServeDelay injects a fixed compute delay into machine m's serving
// path — the deadline-propagation drills use it to make server-side
// budget expiry deterministic.
func (cl *Cluster) SetServeDelay(m int, d time.Duration) {
	cl.stores[m].serveDelay.Store(int64(d))
}

func (cl *Cluster) pullsServed() int64 {
	var sum int64
	for _, s := range cl.servers {
		sum += s.PullsServed()
	}
	return sum
}

// encodeTrainGrad is the allocating variant of encodeTrainGradInto.
func encodeTrainGrad(step uint64, source int, g *moe.ExpertGrad) []byte {
	return encodeTrainGradInto(nil, step, source, g)
}

// decodeTrainGrad parses a training gradient payload for hidden size h,
// copying the floats out (the transport recycles the payload buffer
// after the store call returns). The wire path decodes into a pooled
// grad instead (parseTrainGradHeader, decodeTrainGradInto).
func decodeTrainGrad(payload []byte, h int) (step uint64, source int, g *moe.ExpertGrad, err error) {
	step, source, err = parseTrainGradHeader(payload, h)
	if err != nil {
		return 0, 0, nil, err
	}
	g = moe.NewExpertGrad(h)
	decodeTrainGradInto(g, payload)
	return step, source, g, nil
}

// decodeMatrix reverses encodeMatrix. rows is bounded by the payload's
// float count over cols before the two are multiplied, so a crafted
// shape cannot wrap the size check.
func decodeMatrix(buf []byte) (*tensor.Matrix, error) {
	if len(buf) < 8 {
		return nil, fmt.Errorf("livecluster: matrix payload too short")
	}
	rows := int(binary.LittleEndian.Uint32(buf[0:4]))
	cols := int(binary.LittleEndian.Uint32(buf[4:8]))
	body := len(buf) - 8
	if rows <= 0 || cols <= 0 || body%4 != 0 || rows > body/4/cols || rows*cols != body/4 {
		return nil, fmt.Errorf("livecluster: bad matrix payload (%dx%d, %d bytes)", rows, cols, len(buf))
	}
	m := tensor.New(rows, cols)
	transport.Float32s(m.Data, buf[8:])
	return m, nil
}
