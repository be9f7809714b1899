// Package chaos is a deterministic fault-injection layer for the repo's
// Las Vegas recovery machinery.
//
// The paper's headline algorithms are Las Vegas: a Monte Carlo fingerprint
// phase followed by a deterministic checker, with detect-and-retry as the
// correctness argument (§3.4). With 61-bit fingerprints a natural collision
// has probability ~n/2^61 per comparison, so the recovery paths built around
// that argument — the reseed loop in internal/server, panic containment in
// internal/pram, snapshot quarantine in internal/persist — essentially never
// execute in production. This package makes them executable on demand: a
// seeded Plan decides, deterministically and reproducibly, when each named
// injection point "fires", and hook call sites threaded through the stack's
// natural seams (fingerprint equality, PRAM super-steps, persist I/O, the
// streaming producer, LZ1 token emission) consult it.
//
// Zero overhead when disabled: the hook functions (Fire, Err, Sleep,
// CorruptByte) live behind the `chaos` build tag. Without the tag
// (hooks_off.go) they are constant-returning leaf functions that the
// compiler inlines and dead-code-eliminates, so production binaries carry
// no branch, no atomic, and no plan lookup at any injection point. With
// `-tags chaos` (hooks_on.go) they consult the globally installed Plan.
//
// Determinism: every decision is a pure function of (plan seed, point name,
// per-point call ordinal). The ordinal is an atomic counter, so under
// concurrency the *assignment* of firings to goroutines varies run to run,
// but the multiset of decisions — how many of the first k calls fire — is
// exactly reproducible from the seed, which is what soak tests and bug
// reproductions need.
package chaos

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Point names one injection site. The convention is "layer.effect".
type Point string

// The injection points wired through the repo. A Plan may name any Point —
// unknown points are legal (they just never get consulted) — but these are
// the ones with live call sites.
const (
	// FPCollide makes fingerprint.Table.Equal report equality for strings
	// whose fingerprints differ — a forced fingerprint collision. This is
	// the fault the paper's Las Vegas argument exists for: the §3.4 checker
	// rejects the resulting output and the caller reseeds and retries.
	FPCollide Point = "fp.collide"

	// PoolPanic panics inside a pram super-step chunk on a worker (or the
	// publishing caller). Exercises the pool's per-step panic containment.
	PoolPanic Point = "pool.panic"

	// PoolDelay sleeps inside a pram super-step chunk, simulating a
	// straggler worker (scheduling jitter, page fault, cgroup throttle).
	PoolDelay Point = "pool.delay"

	// PersistWrite fails the data write of an atomic snapshot put.
	PersistWrite Point = "persist.write"

	// PersistSync fails the fsync before the atomic rename.
	PersistSync Point = "persist.sync"

	// PersistRename fails the final rename of an atomic snapshot put.
	PersistRename Point = "persist.rename"

	// PersistWriteFlip flips one bit of the payload actually written to the
	// temp file (the in-memory copy stays intact) — silent media corruption
	// at write time, caught by the store's post-write read-back verify.
	PersistWriteFlip Point = "persist.writeflip"

	// PersistBitflip flips one bit of snapshot bytes just read from disk,
	// before CRC validation — bit rot at read time, caught by the codec and
	// routed to quarantine.
	PersistBitflip Point = "persist.bitflip"

	// PersistQuarantine fails the quarantine rename itself, exercising the
	// surfaced quarantine-failure path (logged and counted, never silent).
	PersistQuarantine Point = "persist.quarantine"

	// StreamStall sleeps in the streaming producer between segment reads —
	// a slow client or a congested link.
	StreamStall Point = "stream.stall"

	// StreamTruncate fails the streaming producer's read mid-stream — an
	// aborted upload. The pipeline must surface an explicit error (NDJSON
	// trailer), never a silently short output.
	StreamTruncate Point = "stream.truncate"

	// LZCorrupt corrupts one token of an LZ1 parse before verification —
	// the LZ1 analogue of a fingerprint collision, caught by the
	// deterministic parse verifier and retried.
	LZCorrupt Point = "lz.corrupt"

	// CzCache corrupts a memoized token transition in the compressed-domain
	// scanner (internal/czsearch): the cached exit state is perturbed when
	// the entry is stored, so every later hit on that key replays from the
	// wrong automaton state. A poisoned memo is the cache-consistency fault
	// the serving layer's sampled decompress-then-match oracle exists to
	// catch — the request must fail loudly, never serve divergent matches.
	CzCache Point = "czsearch.cache"

	// DenseDrop drops the match starting at the last byte of a text when a
	// dense cursor flushes it — an output lost in the ring replay, under
	// every dense route (/match's shards, /match/stream's last segment, the
	// compressed scanner's expanded mode). The table stays certified, so
	// this is the code fault the serving layer's canary walk exists to
	// catch: a canary turn must fail loudly.
	DenseDrop Point = "dense.drop"

	// CzTruncate fails the compressed scanner's token read mid-stream — an
	// aborted upload or a corrupt container tail. The scanner must surface a
	// typed error (NDJSON trailer / non-zero CLI exit), never a silently
	// short match set.
	CzTruncate Point = "czsearch.truncate"

	// The rpc.* family is consulted by the cluster RPC transport
	// (internal/resilience), not through the build-tag hooks: the transport
	// holds its own Plan (installed at runtime via POST /v1/rpcfaults,
	// behind matchd -rpc-fault-admin) and calls Decide directly, so wire
	// faults are available in any build — they never touch the hot
	// single-node paths the hooks guard. Each point also matches with a
	// ".<peerName>" suffix (e.g. "rpc.refuse.n2"), scoping the fault to one
	// destination; rules installed on only one side of a link produce an
	// asymmetric partition (A→B dead, B→A alive).

	// RPCRefuse fails an outbound request before dialing — connection
	// refused, the dead-process failure mode.
	RPCRefuse Point = "rpc.refuse"

	// RPCBlackhole accepts the request and then never answers: the attempt
	// blocks until its context is canceled — the partitioned-link failure
	// mode, the one a fast error never simulates.
	RPCBlackhole Point = "rpc.blackhole"

	// RPCDelay sleeps the rule's delay before forwarding — a slow or
	// congested link.
	RPCDelay Point = "rpc.delay"

	// RPCReset returns response headers normally and then fails the body
	// mid-read — a connection reset after partial transfer.
	RPCReset Point = "rpc.reset"
)

// Rule says when one point fires. Exactly one trigger applies: Every > 0
// fires on every Every-th call; otherwise P is the per-call probability
// (derived deterministically from the seed and the call ordinal). N > 0
// caps the total number of firings; Delay is how long Sleep-style points
// sleep when they fire.
type Rule struct {
	P     float64
	Every int64
	N     int64
	Delay time.Duration
}

// pointState is a Rule plus its live counters.
type pointState struct {
	Rule
	calls atomic.Int64
	fired atomic.Int64
}

// Plan is a seeded fault schedule: a rule per point. A nil *Plan never
// fires. Plans are safe for concurrent use.
type Plan struct {
	seed   uint64
	points map[Point]*pointState
}

// NewPlan returns an empty plan with the given seed. Points are added with
// Set.
func NewPlan(seed uint64) *Plan {
	return &Plan{seed: seed, points: make(map[Point]*pointState)}
}

// Set installs (or replaces) the rule for a point, resetting its counters.
// It returns the plan for chaining. Not safe concurrently with decisions —
// configure the plan fully before installing it.
func (p *Plan) Set(pt Point, r Rule) *Plan {
	p.points[pt] = &pointState{Rule: r}
	return p
}

// Seed returns the plan's seed.
func (p *Plan) Seed() uint64 { return p.seed }

// splitmix64 is the SplitMix64 finalizer — a full-avalanche mix used to
// turn (seed, point, ordinal) into an i.i.d.-looking uniform 64-bit value.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hashPoint folds a point name into 64 bits (FNV-1a).
func hashPoint(pt Point) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(pt); i++ {
		h ^= uint64(pt[i])
		h *= 1099511628211
	}
	return h
}

// decide is the deterministic core: should the c-th call (1-based) of pt
// fire under rule r and seed s?
func decide(s uint64, pt Point, c int64, r *pointState) bool {
	if r.Every > 0 {
		return c%r.Every == 0
	}
	if r.P <= 0 {
		return false
	}
	if r.P >= 1 {
		return true
	}
	u := splitmix64(s ^ hashPoint(pt) ^ uint64(c))
	return float64(u>>11)/(1<<53) < r.P
}

// fire records one call to pt and reports whether it fires, together with
// the firing ordinal (1-based among firings; 0 when not firing) — corrupt
// points use the ordinal to pick a deterministic bit — and the rule's
// delay.
// Decide consults the plan for one named point and returns whether the
// fault fires, the ordinal of the call, and the rule's delay. It is the
// exported form of the hook-side decision for callers that hold their own
// Plan rather than the process-global hook — the cluster RPC transport
// (internal/resilience) uses it so wire faults work in any build.
func (p *Plan) Decide(pt Point) (fire bool, ordinal int64, delay time.Duration) {
	return p.fire(pt)
}

func (p *Plan) fire(pt Point) (bool, int64, time.Duration) {
	if p == nil {
		return false, 0, 0
	}
	st, ok := p.points[pt]
	if !ok {
		return false, 0, 0
	}
	c := st.calls.Add(1)
	if !decide(p.seed, pt, c, st) {
		return false, 0, 0
	}
	f := st.fired.Add(1)
	if st.N > 0 && f > st.N {
		return false, 0, 0
	}
	return true, f, st.Delay
}

// PointStats reports one point's call/fire counters.
type PointStats struct {
	Point Point `json:"point"`
	Calls int64 `json:"calls"`
	Fired int64 `json:"fired"`
}

// Stats returns per-point counters in point-name order. Fired never exceeds
// the rule's N cap.
func (p *Plan) Stats() []PointStats {
	if p == nil {
		return nil
	}
	out := make([]PointStats, 0, len(p.points))
	for pt, st := range p.points {
		f := st.fired.Load()
		if st.N > 0 && f > st.N {
			f = st.N
		}
		out = append(out, PointStats{Point: pt, Calls: st.calls.Load(), Fired: f})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Point < out[j].Point })
	return out
}

// String renders the plan in the ParsePlan grammar (counters excluded).
func (p *Plan) String() string {
	if p == nil {
		return ""
	}
	pts := make([]Point, 0, len(p.points))
	for pt := range p.points {
		pts = append(pts, pt)
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i] < pts[j] })
	var b strings.Builder
	for i, pt := range pts {
		if i > 0 {
			b.WriteByte(';')
		}
		st := p.points[pt]
		b.WriteString(string(pt))
		sep := ':'
		put := func(k, v string) {
			b.WriteRune(sep)
			sep = ','
			b.WriteString(k)
			b.WriteByte('=')
			b.WriteString(v)
		}
		if st.Every > 0 {
			put("every", strconv.FormatInt(st.Every, 10))
		} else {
			put("p", strconv.FormatFloat(st.P, 'g', -1, 64))
		}
		if st.N > 0 {
			put("n", strconv.FormatInt(st.N, 10))
		}
		if st.Delay > 0 {
			put("delay", st.Delay.String())
		}
	}
	return b.String()
}

// ParsePlan builds a plan from a seed and a spec string. Grammar:
//
//	spec  := entry (';' entry)*
//	entry := point ':' kv (',' kv)*
//	kv    := 'p' '=' float            per-call probability in [0, 1]
//	       | 'every' '=' int          fire every k-th call (overrides p)
//	       | 'n' '=' int              cap total firings
//	       | 'delay' '=' duration     sleep length for stall/delay points
//
// Example: "fp.collide:p=0.01,n=50;pool.panic:every=997;stream.stall:p=0.05,delay=5ms"
//
// Whitespace around tokens is ignored. An empty spec yields an empty plan.
func ParsePlan(seed uint64, spec string) (*Plan, error) {
	p := NewPlan(seed)
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return p, nil
	}
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, kvs, ok := strings.Cut(entry, ":")
		if !ok {
			return nil, fmt.Errorf("chaos: entry %q: want point:key=val[,key=val]", entry)
		}
		pt := Point(strings.TrimSpace(name))
		if pt == "" {
			return nil, fmt.Errorf("chaos: entry %q: empty point name", entry)
		}
		var r Rule
		for _, kv := range strings.Split(kvs, ",") {
			kv = strings.TrimSpace(kv)
			if kv == "" {
				continue
			}
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return nil, fmt.Errorf("chaos: %s: %q is not key=val", pt, kv)
			}
			k, v = strings.TrimSpace(k), strings.TrimSpace(v)
			var err error
			switch k {
			case "p":
				r.P, err = strconv.ParseFloat(v, 64)
				if err == nil && (r.P < 0 || r.P > 1) {
					err = fmt.Errorf("probability %v outside [0, 1]", r.P)
				}
			case "every":
				r.Every, err = strconv.ParseInt(v, 10, 64)
				if err == nil && r.Every < 1 {
					err = fmt.Errorf("every=%d must be >= 1", r.Every)
				}
			case "n":
				r.N, err = strconv.ParseInt(v, 10, 64)
				if err == nil && r.N < 0 {
					err = fmt.Errorf("n=%d must be >= 0", r.N)
				}
			case "delay":
				r.Delay, err = time.ParseDuration(v)
				if err == nil && r.Delay < 0 {
					err = fmt.Errorf("delay %v must be >= 0", r.Delay)
				}
			default:
				err = fmt.Errorf("unknown key %q", k)
			}
			if err != nil {
				return nil, fmt.Errorf("chaos: %s: %v", pt, err)
			}
		}
		p.Set(pt, r)
	}
	return p, nil
}

// InjectedError is the error produced by error-returning injection points.
// It is defined unconditionally (not behind the build tag) so recovery code
// and tests can errors.As against it in any build.
type InjectedError struct {
	Point Point
	Op    string // the operation the fault replaced, e.g. "write", "read"
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("chaos: injected %s fault at %s", e.Op, e.Point)
}

// IsInjected reports whether err is (or wraps) an injected fault.
func IsInjected(err error) bool {
	var ie *InjectedError
	return errors.As(err, &ie)
}
