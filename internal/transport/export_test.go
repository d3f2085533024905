package transport

import (
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

// PingsServed returns how many heartbeat probes this server answered.
func (s *Server) PingsServed() int64 { return s.pings.Load() }

// JoinsServed returns how many JOIN requests this server admitted.
func (s *Server) JoinsServed() int64 { return s.joins.Load() }

// MigrationsStaged returns how many MIGRATE payloads this server's
// store accepted.
func (s *Server) MigrationsStaged() int64 { return s.migrations.Load() }

// ReplicasApplied returns how many REPL streams this server's store
// accepted.
func (s *Server) ReplicasApplied() int64 { return s.repls.Load() }

// ServesAnswered returns how many SERVE micro-batches this server's
// store computed and answered.
func (s *Server) ServesAnswered() int64 { return s.serves.Load() }
