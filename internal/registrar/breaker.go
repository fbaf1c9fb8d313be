package registrar

import (
	"context"
	"sync"
	"time"
)

// BreakerState is a circuit breaker's position.
type BreakerState uint8

// The classic three states: closed passes requests and counts
// consecutive failures; open rejects without a network attempt until
// the cooldown elapses; half-open admits a single probe whose outcome
// decides between re-closing and re-opening.
const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// BreakerConfig tunes the per-host circuit breakers.
type BreakerConfig struct {
	// Threshold is the number of consecutive request failures that
	// opens the breaker. <= 0 selects the default (5).
	Threshold int
	// Cooldown is how long an open breaker rejects before admitting a
	// half-open probe. <= 0 selects the default (2s).
	Cooldown time.Duration
}

const (
	defaultBreakerThreshold = 5
	defaultBreakerCooldown  = 2 * time.Second
)

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Threshold <= 0 {
		c.Threshold = defaultBreakerThreshold
	}
	if c.Cooldown <= 0 {
		c.Cooldown = defaultBreakerCooldown
	}
	return c
}

// breaker is one host's circuit breaker. The half-open state admits
// exactly one in-flight probe; callers arriving meanwhile wait for its
// verdict instead of failing, so a recovering host sees one request,
// not a thundering herd, and the callers queued behind the probe
// proceed as soon as it succeeds.
type breaker struct {
	mu       sync.Mutex
	cfg      BreakerConfig
	state    BreakerState
	fails    int // consecutive failures while closed
	openedAt time.Time
	// verdict is non-nil while a half-open probe is in flight and is
	// closed when the probe settles (success, failure or abandon).
	verdict chan struct{}
	opens   int64 // lifetime count of closed→open transitions
}

// allow reports whether a request may proceed and whether it is the
// half-open probe; when it may not proceed, the remaining cooldown is
// returned for Retry-After-style surfacing. A caller that finds a probe
// in flight waits for its verdict — at most maxWait (one attempt
// timeout; <= 0 means one cooldown) and never past ctx — then proceeds
// if the probe re-closed the breaker, takes over an abandoned probe, or
// is rejected if the probe re-opened it.
func (b *breaker) allow(ctx context.Context, maxWait time.Duration) (ok, probe bool, wait time.Duration) {
	if maxWait <= 0 {
		maxWait = b.cfg.Cooldown
	}
	var timeout <-chan time.Time
	b.mu.Lock()
	for {
		switch b.state {
		case BreakerClosed:
			b.mu.Unlock()
			return true, false, 0
		case BreakerOpen:
			if wait := b.cfg.Cooldown - time.Since(b.openedAt); wait > 0 {
				b.mu.Unlock()
				return false, false, wait
			}
			b.state = BreakerHalfOpen
		}
		if b.verdict == nil {
			b.verdict = make(chan struct{})
			b.mu.Unlock()
			return true, true, 0
		}
		verdict := b.verdict
		b.mu.Unlock()
		if timeout == nil {
			t := time.NewTimer(maxWait)
			defer t.Stop()
			timeout = t.C
		}
		select {
		case <-verdict:
		case <-timeout:
			return false, false, b.cfg.Cooldown
		case <-ctx.Done():
			return false, false, b.cfg.Cooldown
		}
		b.mu.Lock()
	}
}

// settle ends an in-flight probe, waking every caller waiting on its
// verdict. b.mu must be held.
func (b *breaker) settle() {
	if b.verdict != nil {
		close(b.verdict)
		b.verdict = nil
	}
}

// success records a completed request, re-closing a half-open breaker.
func (b *breaker) success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = BreakerClosed
	b.fails = 0
	b.settle()
}

// failure records a failed request: it trips a closed breaker past the
// threshold and re-opens a half-open one immediately.
func (b *breaker) failure(now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerHalfOpen:
		b.state = BreakerOpen
		b.openedAt = now
		b.opens++
		b.settle()
	case BreakerClosed:
		b.fails++
		if b.fails >= b.cfg.Threshold {
			b.state = BreakerOpen
			b.openedAt = now
			b.opens++
		}
	default: // already open (late failure from an admitted request)
		b.openedAt = now
	}
}

// abandon gives up a probe that ended without a verdict (its caller
// cancelled): the breaker stays half-open and the next waiting caller
// becomes the probe.
func (b *breaker) abandon() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerHalfOpen {
		b.settle()
	}
}

// HostHealth is one host's breaker snapshot, surfaced on /stats.
type HostHealth struct {
	Host                string `json:"host"`
	State               string `json:"state"`
	ConsecutiveFailures int    `json:"consecutive_failures"`
	Opens               int64  `json:"opens"`
}

func (b *breaker) snapshot(host string) HostHealth {
	b.mu.Lock()
	defer b.mu.Unlock()
	return HostHealth{
		Host:                host,
		State:               b.state.String(),
		ConsecutiveFailures: b.fails,
		Opens:               b.opens,
	}
}

// breakerSet lazily allocates one breaker per host.
type breakerSet struct {
	mu  sync.Mutex
	cfg BreakerConfig
	m   map[string]*breaker
}

func newBreakerSet(cfg BreakerConfig) *breakerSet {
	return &breakerSet{cfg: cfg.withDefaults(), m: make(map[string]*breaker)}
}

func (s *breakerSet) get(host string) *breaker {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.m[host]
	if b == nil {
		b = &breaker{cfg: s.cfg}
		s.m[host] = b
	}
	return b
}

func (s *breakerSet) snapshot() []HostHealth {
	s.mu.Lock()
	hosts := make([]string, 0, len(s.m))
	for h := range s.m {
		hosts = append(hosts, h)
	}
	s.mu.Unlock()
	out := make([]HostHealth, 0, len(hosts))
	for _, h := range hosts {
		out = append(out, s.get(h).snapshot(h))
	}
	return out
}
