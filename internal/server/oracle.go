package server

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/ahocorasick"
	"repro/internal/dense"
	"repro/internal/persist"
	"repro/internal/stream"
)

// Trust in the dense routes: buffered matches, streams and compressed scans.
// The paper's §3.4 checker cannot vouch for a compiled table: Lemma 3.4
// certifies that claimed matches occur (it accepts M ≡ None), not that none
// were omitted. What vouches for a table is ahocorasick.Certify, which checks
// every entry of it against its patterns, sharing no code with dense.Compile,
// at 0.4–0.5× the cost of compiling it. It runs once per automaton, before
// its first answer, on the first request of any route that reads it
// (Entry.certified) — not at publish, where it would add ≈ 0.5 ms to a
// 2 ms registration. A table that fails (a wrong DENSE section from disk or
// a peer) is recompiled from the patterns, certified again, swapped in and
// written back to the entry's cached bundle; if that fails too, every
// request on the entry fails.
//
// The certificate cannot vouch for the code that scans the table: the
// kernel's lanes, the cursor's ring replay, the shards, the stream's
// segments, czsearch's resync. A canary checks that code the same way on
// every dense route: on a turn (Entry.canary) a stream.Canary walks the
// certified table naively beside the scan — the whole text on /match, each
// segment on /match/stream, the container decoded afresh on the compressed
// routes — and settle counts and times it. A divergence fails the request
// loudly (500, or an error trailer on a stream under way), is logged, and
// makes every later request on the entry a turn, on every route: a fault
// that persists fails every request, and once it is gone each answer is
// still checked. No route serves a second engine's answer. Tree-served
// entries take no turns: MatchChecked is its own Las Vegas loop.

// verifySampleEvery is the canary's period: a route's request 1 on an entry
// and every multiple of this count are turns.
const verifySampleEvery = 1024

// errUncertified fails every request on an entry whose automaton, and the
// automaton recompiled from its patterns, both failed the certificate.
var errUncertified = errors.New("the dictionary's automaton failed its certificate, and so did its recompile")

// certified returns the automaton the entry serves from, once it has passed
// its certificate: nil for an entry the tree walk serves, and an error when
// the entry can serve nothing. The first call runs the certificate and
// repairs a table that fails it; concurrent first callers wait for that run,
// and its outcome is final.
func (e *Entry) certified(s *Server) (*dense.Automaton, error) {
	if e.aut.Load() == nil {
		return nil, nil
	}
	e.certOnce.Do(func() {
		if err := certify(e.pats, e.aut.Load(), s.metrics); err != nil {
			e.logf("entry %s: automaton failed its certificate: %v; recompiling it from the patterns", e.ID, err)
			if err := s.repair(e); err != nil {
				e.logf("entry %s: %v; every request on it now fails", e.ID, err)
				e.certErr = errUncertified
			}
		}
	})
	if e.certErr != nil {
		return nil, e.certErr
	}
	return e.aut.Load(), nil
}

// certify runs ahocorasick.Certify, counting the outcome and its time.
func certify(patterns [][]byte, a *dense.Automaton, mt *Metrics) error {
	start := time.Now()
	err := ahocorasick.Certify(patterns, a)
	mt.certifyNanos.Add(time.Since(start).Nanoseconds())
	if err != nil {
		mt.certifyFail.Add(1)
		return err
	}
	mt.certified.Add(1)
	return nil
}

// repair recompiles the entry's automaton from its patterns and certifies
// it. A pass swaps it in and, as a warm start does with a bundle it had to
// compile, rewrites the entry's bundle under its content address.
func (s *Server) repair(e *Entry) error {
	start := time.Now()
	a, err := dense.Compile(e.pats, s.denseOptions())
	if err != nil {
		s.metrics.denseCompileFails.Add(1)
		return fmt.Errorf("recompile refused: %w", err)
	}
	s.metrics.denseCompiles.Add(1)
	s.metrics.denseCompileNanos.Add(time.Since(start).Nanoseconds())
	s.metrics.denseTableBytes.Add(a.Stats().TableBytes)
	if err := certify(e.pats, a, s.metrics); err != nil {
		return fmt.Errorf("recompiled automaton failed its certificate too: %w", err)
	}
	e.aut.Store(a)
	if s.store != nil {
		if key := persist.KeyFor(e.pats, e.opts); e.SnapKey == key.String() {
			s.recordPut(s.store.PutBytes(key, (&persist.Bundle{Patterns: e.pats, Options: e.opts, Automaton: a}).Encode()))
		}
	}
	return nil
}

// canary counts one request on reqs, an entry's per-route counter, and
// returns a canary over a when the request is a turn — request 1, every
// verifySampleEvery-th, and every request once the entry has diverged —
// and nil when it is not. A nil a, the tree walk, takes no turns.
func (e *Entry) canary(reqs *atomic.Int64, a *dense.Automaton) *stream.Canary {
	if a == nil {
		return nil
	}
	if n := reqs.Add(1); n == 1 || n%verifySampleEvery == 0 || e.diverged.Load() {
		return stream.NewCanary(a)
	}
	return nil
}

// settle ends canary turn c of a request whose outcome is err: it times the
// walk, and counts a pass, or a divergence on the route's counters. A
// divergence is logged and makes every later request on the entry a turn.
// It returns err.
func (s *Server) settle(e *Entry, c *stream.Canary, err error, pass, fail *atomic.Int64) error {
	s.metrics.oracleNanos.Add(c.Nanos)
	switch {
	case err == nil:
		pass.Add(1)
	case errors.Is(err, stream.ErrDiverged):
		fail.Add(1)
		e.diverged.Store(true)
		e.logf("entry %s: %v; the request failed, and every later request on the entry is a canary turn", e.ID, err)
	}
	return err
}
