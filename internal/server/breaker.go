package server

import (
	"context"
	"fmt"
	"time"

	"repro/internal/pram"
)

// Resilience policy around the Las Vegas matching loop. One fingerprint
// failure is routine (reseed and retry, §3.4); matchAttempts consecutive
// failures on one request is a FingerprintExhaustedError (a 500 — the
// request is lost but the entry may still be fine); breakerThreshold
// consecutive *exhausted requests* on the same entry mean the entry's
// randomness is somehow poisoned, and the circuit breaker takes it out of
// service while fresh fingerprints are rebuilt in the background. Requests
// arriving meanwhile fail fast with a DegradedError (a 503 + Retry-After)
// instead of burning matchAttempts full match/check rounds each.
//
// The breaker applies only to entries whose §3 stage is built: fingerprints
// belong to the stage, and only MatchChecked — which builds it — feeds the
// breaker. An entry served by its automaton has no fingerprint state and
// never trips it.

// breakerThreshold is how many consecutive MatchChecked exhaustions open an
// entry's circuit breaker.
const breakerThreshold = 2

// FingerprintExhaustedError reports that every Las Vegas attempt on one
// request failed the deterministic checker — with 61-bit fingerprints this
// effectively never happens by chance; it indicates fault injection or a
// real defect.
type FingerprintExhaustedError struct {
	ID       string
	Attempts int
}

func (e *FingerprintExhaustedError) Error() string {
	return fmt.Sprintf("server: %d consecutive fingerprint failures on %s", e.Attempts, e.ID)
}

// DegradedError reports that the entry's circuit breaker is open; the
// request was refused before any matching work.
type DegradedError struct {
	ID string
}

func (e *DegradedError) Error() string {
	return fmt.Sprintf("server: dictionary %s is degraded, recovery in progress", e.ID)
}

// degradedRetryAfter is the Retry-After value (seconds) sent with breaker
// 503s. Recovery is a sequential fingerprint rebuild — milliseconds — so one
// second is already generous.
const degradedRetryAfter = "1"

// Degraded reports whether the entry's circuit breaker is open.
func (e *Entry) Degraded() bool { return e.degraded.Load() }

// noteSuccess closes the failure streak after a verified match.
func (e *Entry) noteSuccess() { e.failStreak.Store(0) }

// noteExhaustion records one fully exhausted request and opens the breaker
// at the threshold. Opening spawns the background recovery exactly once (the
// CompareAndSwap is the election).
func (e *Entry) noteExhaustion(mt *Metrics) {
	if mt != nil {
		mt.fpExhaustions.Add(1)
	}
	if e.failStreak.Add(1) < breakerThreshold {
		return
	}
	if !e.degraded.CompareAndSwap(false, true) {
		return
	}
	if mt != nil {
		mt.breakerOpens.Add(1)
	}
	e.logf("entry %s: breaker open after %d consecutive exhausted requests; rebuilding fingerprints in background", e.ID, breakerThreshold)
	go e.recoverDegraded(mt)
}

// recoverDegraded rebuilds the entry's randomized state — a reseed with a
// fresh seed rebuilds the fingerprint hasher and dictionary table, which is
// the entire random component of §3 preprocessing; the deterministic
// structures (suffix tree, NCA, anchors) are seed-independent and stay. The
// cost is charged to the "preprocess" ledger like any reseed.
func (e *Entry) recoverDegraded(mt *Metrics) {
	dict := e.tree(1, mt) // built: only MatchChecked opens the breaker
	m := pram.NewSequential()
	e.mu.Lock()
	e.seed = mix64(e.seed) | 1 // fresh, never zero
	dict.Reseed(m, e.seed)
	e.mu.Unlock()
	if mt != nil {
		mt.ChargePRAM("preprocess", m.Work(), m.Depth())
		mt.breakerRecoveries.Add(1)
	}
	e.failStreak.Store(0)
	e.degraded.Store(false)
	e.logf("entry %s: recovered, fingerprints rebuilt", e.ID)
}

// reseedBackoff sleeps between Las Vegas attempts: bounded exponential
// growth (1 ms doubling, capped at 32 ms) plus deterministic jitter derived
// from the entry seed, so simultaneous failing requests don't re-match in
// lockstep. It runs only on the failure path — the fault-free request never
// sleeps and its ledger is untouched (sleeps charge no PRAM work anyway).
// Cancellation cuts the sleep short; the caller re-checks ctx at loop top.
func reseedBackoff(ctx context.Context, attempt int, seed uint64) {
	d := time.Millisecond << uint(attempt-1)
	if d > 32*time.Millisecond {
		d = 32 * time.Millisecond
	}
	jitterMod := uint64(d / 2)
	if jitterMod > 0 {
		d += time.Duration(mix64(seed+uint64(attempt)) % jitterMod)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// mix64 is the splitmix64 finalizer, used for seed evolution and jitter.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
