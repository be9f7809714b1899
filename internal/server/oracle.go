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
// kernel's lanes, the cursor's ring replay, denseEvents' shards, the stream's
// segments, czsearch's resync. A canary checks that code: request 1 of each
// route on an entry, and every verifySampleEvery-th after it, also walks the
// certified table naively (ahocorasick.Walk, one Step per byte) and answers
// only if the walk found the same matches. A divergence fails the request
// loudly — 500, or an error trailer on a stream already under way — and is
// counted and logged. No route serves a second engine's answer. Tree-served
// entries take no turns: MatchChecked is its own Las Vegas loop.

// verifySampleEvery is the canary's period: a route's request 1 on an entry
// and every multiple of this count are turns.
const verifySampleEvery = 1024

// errUncertified fails every request on an entry whose automaton, and the
// automaton recompiled from its patterns, both failed the certificate.
var errUncertified = errors.New("the dictionary's automaton failed its certificate, and so did its recompile")

// errDiverged fails a canary turn whose matches differ from the walk's.
var errDiverged = errors.New("dense matches diverged from the canary's walk over the certified table")

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

// canaryTurn counts one request on reqs, an entry's per-route counter, and
// reports whether it is a canary turn.
func canaryTurn(reqs *atomic.Int64) bool {
	n := reqs.Add(1)
	return n == 1 || n%verifySampleEvery == 0
}

// walkCheck is one canary turn over a whole text: ahocorasick's walk over a
// is compared with evs, the matches a route found in text, and the outcome
// counted on the route's pass or fail counter. It returns errDiverged, and
// logs, when they differ.
func (s *Server) walkCheck(e *Entry, a *dense.Automaton, text []byte, evs []stream.MatchEvent, pass, fail *atomic.Int64) error {
	start := time.Now()
	same, k := true, 0
	for i, id := range ahocorasick.Walk(a, text) {
		if id >= 0 {
			same = same && k < len(evs) && evs[k] == stream.MatchEvent{Pos: int64(i), PatternID: id, Length: a.PatternLen(id)}
			k++
		}
	}
	s.metrics.oracleNanos.Add(time.Since(start).Nanoseconds())
	if !same || k != len(evs) {
		fail.Add(1)
		e.logf("entry %s: matches over %d bytes diverged from the canary's walk; the request failed", e.ID, len(text))
		return errDiverged
	}
	pass.Add(1)
	return nil
}
