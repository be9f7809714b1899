package server

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/ahocorasick"
	"repro/internal/core"
	"repro/internal/pram"
	"repro/internal/stream"
)

// Trust in the dense routes: buffered matches, streams and compressed scans.
// A compiled automaton is a deterministic table, and the paper's §3.4
// checker cannot vouch for one: Lemma 3.4 certifies that claimed matches
// occur where they claim to (it accepts M ≡ None), which covers the Monte
// Carlo matcher's one-sided errors but not a table's omissions.
//
// What vouches for a table is a certificate. An Aho–Corasick table is
// determined by its patterns, and ahocorasick.Certify checks every entry of
// it against them — in the oracle package, sharing no code with
// dense.Compile — at 0.4–0.5× the cost of compiling it. Every entry's
// automaton is certified exactly once, before its first answer, by the first
// request on any route that would read it. Not at publish: there it would
// add ≈ 0.5 ms to a 256-pattern registration of ≈ 2 ms and ≈ 4.5 ms per
// 1024-pattern bundle to a warm start of ≈ 45 ms, while the first request
// already paid more than that for the oracle it built (2–14 ms) and then ran
// over its whole text.
//
// After the certificate the oracle — internal/ahocorasick's independent
// matcher, which needs none of the §3 tables and cannot be degraded — is a
// canary for the code around the table (the scan kernel, the cursors, the
// czsearch memo), not a guard on the table: it takes request 1 of each route
// and every verifySampleEvery-th after. An automaton that fails its
// certificate is logged once and counted, and from then on every request on
// every route takes an oracle turn, so the divergence handling answers with
// the reference's events. Tree-served entries have no table and take no
// turns: MatchChecked is its own Las Vegas loop.

// verifySampleEvery is the canary's period: a route's request 1 on an entry
// and every multiple of this count are compared with the reference over
// their full text. At 1 in 1024 a turn costs 1–2 % of route CPU.
const verifySampleEvery = 1024

// Certificate states of an entry's automaton.
const (
	certUnknown int32 = iota // no request has read the table yet
	certPass
	certFail
)

// certified reports whether the entry's automaton is the automaton of its
// patterns, running ahocorasick.Certify on the first call. Concurrent first
// callers share the one run, and the outcome is final.
func (e *Entry) certified(mt *Metrics) bool {
	if v := e.cert.Load(); v != certUnknown {
		return v == certPass
	}
	e.certMu.Lock()
	defer e.certMu.Unlock()
	if v := e.cert.Load(); v != certUnknown {
		return v == certPass
	}
	start := time.Now()
	err := ahocorasick.Certify(e.pats, e.aut)
	mt.certifyNanos.Add(time.Since(start).Nanoseconds())
	if err != nil {
		mt.certifyFail.Add(1)
		e.logf("entry %s: automaton failed its certificate: %v; every request now takes an oracle turn", e.ID, err)
		e.cert.Store(certFail)
		return false
	}
	mt.certified.Add(1)
	e.cert.Store(certPass)
	return true
}

// oracleTurn counts one request on reqs, an entry's per-route counter, and
// reports whether it takes an oracle turn. The entry must have an
// automaton; the first request to get here certifies it.
func (s *Server) oracleTurn(e *Entry, reqs *atomic.Int64) bool {
	n := reqs.Add(1)
	return !e.certified(s.metrics) || n == 1 || n%verifySampleEvery == 0
}

// reference is an entry's oracle, the classical Aho–Corasick automaton over
// its patterns, as a stream.TextMatcher.
type reference struct {
	ac     *ahocorasick.Automaton
	maxPat int
	mt     *Metrics
}

// acquireReference returns the entry's oracle for one turn, building it
// unless a turn in flight holds it; releaseReference gives it back. Turns
// that overlap share one build. Once a certified entry's last turn is over
// the reference goes (≈ 155 B a state, 3.6 MB for 1024 patterns of 16–32
// bytes, against a rebuild of ≈ 14 ms every 1024th request); an entry whose
// certificate failed keeps it, since every request takes a turn.
func (e *Entry) acquireReference(mt *Metrics) *reference {
	e.refMu.Lock()
	defer e.refMu.Unlock()
	if e.ref == nil {
		start := time.Now()
		e.ref = &reference{ac: ahocorasick.New(e.patterns()), maxPat: e.MaxPatLen, mt: mt}
		e.refStates.Store(int64(e.ref.ac.NumStates()))
		mt.oracleBuilds.Add(1)
		mt.oracleNanos.Add(time.Since(start).Nanoseconds())
	}
	e.refTurns++
	return e.ref
}

func (e *Entry) releaseReference() {
	e.refMu.Lock()
	defer e.refMu.Unlock()
	if e.refTurns--; e.refTurns == 0 && e.cert.Load() == certPass {
		e.ref = nil
		e.refStates.Store(0)
	}
}

func (r *reference) MaxPatternLen() int { return r.maxPat }

// MatchWindow returns M[] over window: one round, and no PRAM charge for a
// sequential scan. The scan cannot be interrupted, so ctx is consulted once,
// before it starts.
func (r *reference) MatchWindow(ctx context.Context, window []byte) ([]core.Match, int, pram.Counters, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, pram.Counters{}, err
	}
	start := time.Now()
	out := make([]core.Match, len(window))
	for i, id := range r.ac.Match(window) {
		out[i] = core.None
		if id >= 0 {
			out[i] = core.Match{PatternID: id, Length: r.ac.PatternLen(id)}
		}
	}
	r.mt.oracleNanos.Add(time.Since(start).Nanoseconds())
	return out, 1, pram.Counters{}, nil
}

// verify takes one oracle turn over a whole text, given the events the fast
// path found in it, counting the outcome on the route's pass or fail counter.
// It returns nil when the reference agrees, and the reference's M[] if not.
// A request whose context has ended builds and scans nothing.
func (s *Server) verify(ctx context.Context, e *Entry, text []byte, got []stream.MatchEvent, pass, fail *atomic.Int64) ([]core.Match, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ref := e.acquireReference(s.metrics)
	defer e.releaseReference()
	want, _, _, err := ref.MatchWindow(ctx, text)
	if err != nil {
		return nil, err
	}
	if stream.SameEvents(e.patterns(), got, want, 0) {
		pass.Add(1)
		return nil, nil
	}
	fail.Add(1)
	e.logf("entry %s: served matches diverged from the reference oracle on %d-byte text", e.ID, len(text))
	return want, nil
}
