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

// Sampled verification of the dense routes: buffered matches, streams and
// compressed scans. A compiled automaton is a deterministic table, and the
// paper's §3.4 checker cannot vouch for one: Lemma 3.4 certifies that claimed
// matches occur where they claim to (it accepts M ≡ None), which covers the
// Monte Carlo matcher's one-sided errors but not a table's omissions. The
// fast path earns trust by agreeing with an independent slow one instead —
// internal/ahocorasick, the ground truth of every test in the repo, which
// needs none of the §3 tables and cannot be degraded. Tree-served entries
// are not sampled: MatchChecked is its own Las Vegas loop.

// verifySampleEvery is the sampling period: a route's request 1 on an entry
// and every multiple of this count are compared with the reference over
// their full text. Request 1 catches a wrong automaton before it serves
// anything in quantity; after it the oracle sees ~1.6% of requests.
const verifySampleEvery = 64

// sampled counts one request on reqs, an entry's per-route counter, and
// reports whether it takes an oracle turn.
func sampled(reqs *atomic.Int64) bool {
	n := reqs.Add(1)
	return n == 1 || n%verifySampleEvery == 0
}

// reference is an entry's oracle, the classical Aho–Corasick automaton over
// its patterns, as a stream.TextMatcher.
type reference struct {
	ac     *ahocorasick.Automaton
	maxPat int
	mt     *Metrics
}

// reference returns the entry's oracle, building it on the first sampled
// turn. It stays with the entry, so the build is paid once and not on every
// 64th request, at the price of its map-per-state footprint: ≈ 155 B a
// state, 3.6 MB for 1024 patterns of 16–32 bytes, released with the entry.
func (e *Entry) reference(mt *Metrics) *reference {
	e.refOnce.Do(func() {
		start := time.Now()
		e.ref.Store(&reference{ac: ahocorasick.New(e.patterns()), maxPat: e.MaxPatLen, mt: mt})
		mt.oracleBuilds.Add(1)
		mt.oracleNanos.Add(time.Since(start).Nanoseconds())
	})
	return e.ref.Load()
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
func (s *Server) verify(ctx context.Context, e *Entry, text []byte, got []stream.MatchEvent, pass, fail *atomic.Int64) ([]core.Match, error) {
	want, _, _, err := e.reference(s.metrics).MatchWindow(ctx, text)
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
