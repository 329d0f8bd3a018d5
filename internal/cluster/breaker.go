package cluster

import (
	"sync"
	"time"
)

// Breaker states, exposed as the cluster_shard_breaker_state gauge
// (0 closed, 1 open, 2 half-open).
const (
	BreakerClosed int64 = iota
	BreakerOpen
	BreakerHalfOpen
)

// Breaker is a per-shard circuit breaker: Threshold consecutive failures
// open it, and after Cooldown a single half-open probe is admitted — its
// outcome closes the breaker again or re-opens it for another cooldown.
// While open, the router skips the shard entirely (its requests go to the
// ring successor) instead of stacking timeouts on a dead backend.
type Breaker struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration
	now       func() time.Time // injectable clock for tests

	state    int64
	failures int
	openedAt time.Time
	probing  bool // a half-open probe is in flight
}

// NewBreaker returns a closed breaker that opens after threshold
// consecutive failures and probes again after cooldown.
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	return &Breaker{threshold: threshold, cooldown: cooldown, now: time.Now}
}

// Allow reports whether a request may be sent. Open flips to half-open
// once the cooldown elapses, admitting exactly one probe at a time; the
// caller must report the probe's outcome via Success or Failure.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			return false
		}
		b.state = BreakerHalfOpen
		b.probing = true
		return true
	default: // half-open
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// Abandon reports that an admitted request ended with no verdict on the
// shard (the router cancelled it: hedge race lost, client gone). If it
// was the half-open probe, the probe slot is released so the next request
// can probe — otherwise an abandoned probe would wedge the breaker
// half-open with probing latched, and the shard would never be retried.
func (b *Breaker) Abandon() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerHalfOpen {
		b.probing = false
	}
}

// Success reports a completed request: resets the failure streak and
// closes the breaker from any state.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = BreakerClosed
	b.failures = 0
	b.probing = false
}

// Failure reports a failed request: a half-open probe failure re-opens
// immediately, a closed-state streak of Threshold opens.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerHalfOpen {
		b.open()
		return
	}
	b.failures++
	if b.state == BreakerClosed && b.failures >= b.threshold {
		b.open()
	}
}

// open transitions to open and stamps the cooldown start. Caller holds mu.
func (b *Breaker) open() {
	b.state = BreakerOpen
	b.openedAt = b.now()
	b.failures = 0
	b.probing = false
}

// State returns the current state constant.
func (b *Breaker) State() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
