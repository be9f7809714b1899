package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// request is one POST the generator can send and judge.
type request struct {
	url   string
	ctype string
	body  []byte
	dict  int    // index of the workload dictionary the request addresses
	text  []byte // the text matched (for compressed routes: the represented text)
	// check judges a reply; full asks for a complete decode and comparison,
	// otherwise a cheap status + count check suffices.
	check func(status int, body []byte, full bool) error
}

// fullCheckEvery is the sampling period of full answer verification during
// a measured window; every warm-up reply is fully verified.
const fullCheckEvery = 16

// sample is one completed request as the generator saw it, as offsets from
// the start of its phase.
type sample struct {
	due   time.Duration // when the request was scheduled (closed loop: when it was sent)
	ready time.Duration // due, or later if every connection was still busy then
	sent  time.Duration
	done  time.Duration
	err   error
}

// conn is one keep-alive connection: a client whose transport may hold a
// single connection, and a reusable reply buffer.
type conn struct {
	client *http.Client
	buf    bytes.Buffer
}

func newConn() *conn {
	return &conn{client: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// do sends r and judges the reply.
func (c *conn) do(r *request, full bool) error {
	req, err := http.NewRequest(http.MethodPost, r.url, bytes.NewReader(r.body))
	if err != nil {
		return err
	}
	if r.ctype != "" {
		req.Header.Set("Content-Type", r.ctype)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	c.buf.Reset()
	_, err = io.Copy(&c.buf, resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("read reply: %w", err)
	}
	return r.check(resp.StatusCode, c.buf.Bytes(), full)
}

// closedLoop drives conns connections for d: each sends its next request
// (round-robin over next) as soon as its previous one completed. Every
// reply is fully verified when fullAll is set, else one in fullCheckEvery.
func closedLoop(conns []*conn, d time.Duration, next func(i int) *request, fullAll bool) []sample {
	var counter atomic.Int64
	start := time.Now()
	per := make([][]sample, len(conns))
	var wg sync.WaitGroup
	for w, c := range conns {
		wg.Add(1)
		go func(w int, c *conn) {
			defer wg.Done()
			for {
				sent := time.Since(start)
				if sent >= d {
					return
				}
				i := int(counter.Add(1) - 1)
				err := c.do(next(i), fullAll || i%fullCheckEvery == 0)
				per[w] = append(per[w], sample{due: sent, ready: sent, sent: sent, done: time.Since(start), err: err})
			}
		}(w, c)
	}
	wg.Wait()
	return mergeSamples(per)
}

// poissonSchedule returns seeded arrival offsets at the given mean rate
// covering d: exponential gaps, so arrivals are independent of replies.
func poissonSchedule(seed uint64, rate float64, d time.Duration) []time.Duration {
	rng := rand.New(rand.NewPCG(seed, 0x6172726976616c))
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= d {
			return out
		}
		out = append(out, due)
	}
}

// lateAfter is how long after a request was due and a connection free its
// send counts as late: lateness is the generator's own lag (timer overshoot,
// scheduling), not the wait for a busy connection, which is the system's.
const lateAfter = time.Millisecond

// openLoop sends request i at schedule[i] regardless of earlier replies,
// over the given connections; a request whose connections are all busy
// waits, and that wait is part of its latency because latency is counted
// from the due time.
func openLoop(conns []*conn, schedule []time.Duration, next func(i int) *request) []sample {
	var counter atomic.Int64
	start := time.Now()
	per := make([][]sample, len(conns))
	var wg sync.WaitGroup
	for w, c := range conns {
		wg.Add(1)
		go func(w int, c *conn) {
			defer wg.Done()
			for {
				i := int(counter.Add(1) - 1)
				if i >= len(schedule) {
					return
				}
				due := schedule[i]
				ready := max(due, time.Since(start))
				sleepUntil(start, due)
				sent := time.Since(start)
				err := c.do(next(i), i%fullCheckEvery == 0)
				per[w] = append(per[w], sample{due: due, ready: ready, sent: sent, done: time.Since(start), err: err})
			}
		}(w, c)
	}
	wg.Wait()
	return mergeSamples(per)
}

// sleepUntil returns once due has passed since start. A timer alone
// overshoots by up to a millisecond on a busy box, so the last stretch is
// spent yielding instead of sleeping.
func sleepUntil(start time.Time, due time.Duration) {
	const spin = 200 * time.Microsecond
	if wait := due - spin - time.Since(start); wait > 0 {
		time.Sleep(wait)
	}
	for time.Since(start) < due {
		runtime.Gosched()
	}
}

func mergeSamples(per [][]sample) []sample {
	var all []sample
	for _, p := range per {
		all = append(all, p...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].done < all[j].done })
	return all
}

// tally summarises one phase's samples.
type tally struct {
	attempted, failed int
	firstErr          error
	latencies         []float64 // ms, from due time, OK requests only, sorted
	oks               []okSample
	lateShare         float64 // share of requests the generator sent late
	queuedShare       float64 // share of requests that waited for a free connection
	span              time.Duration
}

// okSample is one verified-OK request: when it completed and how long it took.
type okSample struct {
	done time.Duration
	ms   float64
}

func tallySamples(samples []sample) tally {
	var t tally
	late, queued := 0, 0
	for _, s := range samples {
		t.attempted++
		if s.done > t.span {
			t.span = s.done
		}
		if s.sent-s.ready > lateAfter {
			late++
		}
		if s.ready > s.due {
			queued++
		}
		if s.err != nil {
			t.failed++
			if t.firstErr == nil {
				t.firstErr = s.err
			}
			continue
		}
		lat := float64(s.done-s.due) / float64(time.Millisecond)
		t.latencies = append(t.latencies, lat)
		t.oks = append(t.oks, okSample{s.done, lat})
	}
	sort.Float64s(t.latencies)
	if t.attempted > 0 {
		t.lateShare = float64(late) / float64(t.attempted)
		t.queuedShare = float64(queued) / float64(t.attempted)
	}
	return t
}

// sliceStat is what one slice of a phase saw.
type sliceStat struct {
	rate     float64 // OK requests completed per second
	p50, p90 float64 // ms; NaN when nothing completed in the slice
}

// slices cuts the phase into k equal stretches of time, by completion, and
// summarises each on its own.
func (t tally) slices(k int) []sliceStat {
	if t.span <= 0 {
		return nil
	}
	per := make([][]float64, k)
	for _, s := range t.oks {
		i := min(int(int64(s.done)*int64(k)/int64(t.span)), k-1)
		per[i] = append(per[i], s.ms)
	}
	out := make([]sliceStat, k)
	for i, lat := range per {
		sort.Float64s(lat)
		out[i].rate = float64(len(lat)) / (t.span.Seconds() / float64(k))
		out[i].p50, _ = percentile(lat, 50)
		out[i].p90, _ = percentile(lat, 90)
	}
	return out
}

// note counts one operation that is not part of a latency tally.
func (t *tally) note(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
	}
}

// ok is the number of verified-OK requests.
func (t tally) ok() int { return t.attempted - t.failed }

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported: below that the value is one draw from the tail, not a measure.
const minBeyond = 10

// percentile returns the p-th percentile (0 < p < 100) of sorted by
// nearest rank. It refuses — ok false — when fewer than minBeyond samples
// lie beyond the returned one.
func percentile(sorted []float64, p float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), false
	}
	rank := int(math.Ceil(p / 100 * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], n-rank >= minBeyond
}

// median of an unsorted slice (NaN when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartile returns the first (q = 1) or third (q = 3) quartile of xs as
// Python's statistics.quantiles(xs, n=4) computes it, which is how the
// benchmark's spreads are judged; NaN when xs is empty.
func quartile(xs []float64, q int) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return median(s)
	}
	j := min(max(q*(n+1)/4, 1), n-1)
	delta := float64(q*(n+1) - 4*j)
	return (s[j-1]*(4-delta) + s[j]*delta) / 4
}
