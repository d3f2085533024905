package transport

import (
	"bufio"
	"errors"
	"strings"
	"time"
)

// Constructors, probes and counters only the tests read.

// IsServeExpired reports whether err is (or wraps, locally or across
// the wire) a serve-budget expiry.
func IsServeExpired(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrServeExpired) {
		return true
	}
	var re *RemoteError
	return errors.As(err, &re) && strings.Contains(re.Msg, ErrServeExpired.Error())
}

// NewClient returns a client with the given credit count (<=0 means
// DefaultCredits) and default failure handling.
func NewClient(credits int) *Client {
	return NewClientOptions(Options{Credits: credits})
}

// PeerLatencyEWMA returns addr's smoothed request latency (0 if the
// peer has no successful samples yet or scoring is disabled).
func (c *Client) PeerLatencyEWMA(addr string) time.Duration {
	c.scoreMu.Lock()
	defer c.scoreMu.Unlock()
	if s := c.scores[addr]; s != nil {
		return time.Duration(s.lat)
	}
	return 0
}

// writeFrame serialises f into w and flushes it.
func writeFrame(w *bufio.Writer, f frame) error {
	if err := writeFrameBuffered(w, f); err != nil {
		return err
	}
	return w.Flush()
}
