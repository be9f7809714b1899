package server

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dense"
	"repro/internal/persist"
	"repro/internal/pram"
)

// Registry holds published dictionaries keyed by server-assigned IDs. It
// realizes the paper's preprocess-once/match-many split at the service
// level: POST /v1/dicts pays the preparation cost exactly once — the
// automaton's compile, or the §3 preprocessing where the tree walk serves —
// and every subsequent request against that ID reuses the resident
// structures at pure query cost.
//
// The registry is bounded: at most capacity dictionaries are resident, and
// inserting beyond that evicts the least-recently-used entry. Eviction only
// unlinks the entry from the registry — requests already holding the
// *Entry keep using it safely until they finish (the memory is reclaimed by
// GC when the last reference drops), so eviction never races a request.
type Registry struct {
	mu        sync.Mutex
	capacity  int
	seq       int64
	byID      map[string]*list.Element // element value is *Entry
	lru       *list.List               // front = most recently used
	evictions int64
	bytes     int64 // sum of resident TotalLen

	logf func(format string, args ...any) // inherited by entries; never nil
}

// Entry is one resident dictionary. It owns its patterns, the options and
// seed they are preprocessed with, and its compiled automaton. Its §3
// dictionary is a stage built only when something asks for the tree
// (tree): the tree walk of an entry without an automaton, /parse and
// /expand.
//
// The matching read path of core.Dictionary is pure; the only mutation is
// Reseed (the Las Vegas retry after a fingerprint failure). Entry therefore
// guards the built dictionary with an RWMutex: queries hold the read lock,
// and the astronomically rare reseed takes the write lock.
type Entry struct {
	ID          string
	NumPatterns int
	TotalLen    int // the paper's d
	MaxPatLen   int
	Created     time.Time
	Source      string // how the entry came to be: "preprocess", "cache", "snapshot", "replica"
	PrepNs      int64  // time to publish: the compile or the load
	SnapKey     string // content-address hex when known (cache/write-through), else ""

	// info memoizes the static part of the EntryInfo payload so Infos()
	// and GET /v1/dicts/{id} only fill in the dynamic hit counter instead
	// of reassembling the struct per call.
	info EntryInfo

	hits atomic.Int64

	// Circuit breaker state (breaker.go): consecutive MatchChecked
	// exhaustions, and whether the entry is out of service while its
	// fingerprints are rebuilt in the background. Only an entry whose stage
	// is built has fingerprints, so only such an entry ever trips it.
	failStreak atomic.Int32
	degraded   atomic.Bool
	logf       func(format string, args ...any) // never nil

	// Dense serving state (dense.go): the compiled automaton (nil = the tree
	// walk serves), set by Insert and replaced only by a repair; its
	// certificate (oracle.go), run once by the first reader, and its outcome;
	// the dense-served request count driving the canary's turns; and whether
	// a turn on any route has diverged, which makes every later request one.
	aut       atomic.Pointer[dense.Automaton]
	certOnce  sync.Once
	certErr   error // written only inside certOnce
	denseReqs atomic.Int64
	diverged  atomic.Bool

	// Compressed-domain serving state (czsearch.go): reusable scanners (one
	// per in-flight compressed request; Run resets them, so a pooled scanner
	// carries no state — not even a poisoned memo — into the next request)
	// and the compressed request count driving the canary's turns. Scanners
	// are made from the certified automaton only, never a repaired one.
	czPool sync.Pool
	czReqs atomic.Int64

	// The dictionary: its patterns and preprocessing options, immutable
	// after Insert, and the §3 stage built from them on first use — nil
	// until then; stageMu makes concurrent first users share one build.
	pats    [][]byte
	opts    core.Options
	stageMu sync.Mutex
	stage   atomic.Pointer[core.Dictionary]

	mu   sync.RWMutex // guards the built stage's fingerprint state and seed
	seed uint64       // the stage's current seed: opts.Seed until a reseed
}

// tree returns the entry's §3 dictionary, building it on first use:
// core.Preprocess of the patterns with the entry's options on a procs-worker
// machine, charged to mt's "preprocess" ledger (mt may be nil). Concurrent
// first callers share the one build, and no goroutine is started. Its seed
// is opts.Seed: only a built stage is ever reseeded, and fingerprint
// randomness is a pure function of the seed, so the stage is the dictionary
// an eager preprocess would have built.
func (e *Entry) tree(procs int, mt *Metrics) *core.Dictionary {
	if d := e.stage.Load(); d != nil {
		return d
	}
	e.stageMu.Lock()
	defer e.stageMu.Unlock()
	if d := e.stage.Load(); d != nil {
		return d
	}
	m := pram.New(procs)
	defer m.Close()
	d := core.Preprocess(m, e.pats, e.opts)
	if mt != nil {
		mt.ChargePRAM("preprocess", m.Work(), m.Depth())
	}
	e.stage.Store(d)
	return d
}

// Hits returns how many requests have looked this entry up.
func (e *Entry) Hits() int64 { return e.hits.Load() }

// Info returns the entry's description with the current hit count and
// serving state: whether a compiled dense automaton is live (and its size),
// whether the §3 stage is built, and whether the circuit breaker is open.
func (e *Entry) Info() EntryInfo {
	info := e.info
	info.Hits = e.hits.Load()
	info.MaxPatLen = e.MaxPatLen
	if a := e.aut.Load(); a != nil {
		st := a.Stats()
		info.Dense = true
		info.DenseStates = st.States
		info.DenseTableBytes = st.TableBytes
	}
	info.Tree = e.stage.Load() != nil
	info.Degraded = e.Degraded()
	return info
}

// SnapshotBytes serializes the entry in the automaton form: its patterns,
// its options with the current seed (read under the lock, so a reseed the
// entry has absorbed is part of the snapshot), and its automaton as a DENSE
// section when it has one, so a restore needs no recompile.
func (e *Entry) SnapshotBytes() []byte {
	opts := e.opts
	e.mu.RLock()
	opts.Seed = e.seed
	e.mu.RUnlock()
	return (&persist.Bundle{Patterns: e.pats, Options: opts, Automaton: e.aut.Load()}).Encode()
}

// NewRegistry returns a registry bounded to capacity resident dictionaries
// (capacity < 1 is clamped to 1).
func NewRegistry(capacity int) *Registry {
	if capacity < 1 {
		capacity = 1
	}
	return &Registry{
		capacity: capacity,
		byID:     make(map[string]*list.Element),
		lru:      list.New(),
		logf:     func(string, ...any) {},
	}
}

// SetLogf installs the logger new entries inherit for breaker transitions
// (nil restores the no-op default). Call before the first Insert.
func (r *Registry) SetLogf(logf func(format string, args ...any)) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	r.mu.Lock()
	r.logf = logf
	r.mu.Unlock()
}

// Insert makes a dictionary resident — its patterns, the options (seed
// included) its §3 stage is preprocessed with, and its compiled dense
// automaton (nil for none) — evicting LRU entries beyond capacity. No §3
// work runs here: the stage is built when something first asks for the tree.
// It returns the new entry and the IDs it evicted. source labels where the
// dictionary came from ("preprocess" when built here, "cache" for a
// snapshot cache hit, "snapshot" for an explicit restore, "replica" for a
// peer pull), snapKey is the content-address hex when known, and prepNs the
// time to publish it: the compile or the load. The entry is immutable in its
// engine from here on: it serves from aut, or from the tree walk when aut is
// nil.
//
// id "" assigns the next d<seq>. Cluster mode passes the dictionary's
// content address instead, so every node names the same patterns the same
// way with zero coordination. Inserting an ID that is already resident
// replaces the old entry (same content address ⇒ same dictionary; in-flight
// requests keep their *Entry safely, as with eviction).
func (r *Registry) Insert(id string, patterns [][]byte, opts core.Options, aut *dense.Automaton, source, snapKey string, prepNs int64) (*Entry, []string) {
	total, maxPat := 0, 0
	for _, p := range patterns {
		total += len(p)
		if len(p) > maxPat {
			maxPat = len(p)
		}
	}
	if opts.Seed == 0 {
		opts.Seed = 1 // as core.Preprocess resolves it
	}
	e := &Entry{
		NumPatterns: len(patterns),
		TotalLen:    total,
		MaxPatLen:   maxPat,
		Created:     time.Now(),
		Source:      source,
		PrepNs:      prepNs,
		SnapKey:     snapKey,
		pats:        patterns,
		opts:        opts,
		seed:        opts.Seed,
	}
	e.aut.Store(aut)

	r.mu.Lock()
	defer r.mu.Unlock()
	if id == "" {
		r.seq++
		id = fmt.Sprintf("d%d", r.seq)
	} else if el, dup := r.byID[id]; dup {
		// Replace-on-same-ID: unlink the old entry exactly like an eviction.
		r.lru.Remove(el)
		delete(r.byID, id)
		r.bytes -= int64(el.Value.(*Entry).TotalLen)
	}
	e.ID = id
	e.logf = r.logf
	e.info = EntryInfo{
		ID:       e.ID,
		Patterns: e.NumPatterns,
		TotalLen: e.TotalLen,
		Created:  e.Created,
		Source:   e.Source,
		PrepNs:   e.PrepNs,
		SnapKey:  e.SnapKey,
	}
	r.byID[e.ID] = r.lru.PushFront(e)
	r.bytes += int64(total)
	var evicted []string
	for r.lru.Len() > r.capacity {
		back := r.lru.Back()
		victim := back.Value.(*Entry)
		r.lru.Remove(back)
		delete(r.byID, victim.ID)
		r.bytes -= int64(victim.TotalLen)
		r.evictions++
		evicted = append(evicted, victim.ID)
	}
	return e, evicted
}

// Get returns the entry for id, refreshing its LRU position.
func (r *Registry) Get(id string) (*Entry, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	el, ok := r.byID[id]
	if !ok {
		return nil, false
	}
	r.lru.MoveToFront(el)
	e := el.Value.(*Entry)
	e.hits.Add(1)
	return e, true
}

// peek returns the entry for id without touching its LRU position or hit
// count (the cluster router asks "do I hold this?" before deciding to pull
// or proxy; that question is not a use of the entry).
func (r *Registry) peek(id string) (*Entry, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	el, ok := r.byID[id]
	if !ok {
		return nil, false
	}
	return el.Value.(*Entry), true
}

// Remove deletes the entry for id, reporting whether it was resident.
func (r *Registry) Remove(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	el, ok := r.byID[id]
	if !ok {
		return false
	}
	r.lru.Remove(el)
	delete(r.byID, id)
	r.bytes -= int64(el.Value.(*Entry).TotalLen)
	return true
}

// Len returns the number of resident entries.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lru.Len()
}

// EntryInfo is the externally visible description of a resident entry,
// in most-recently-used-first order. The static fields are memoized on the
// entry at insert time; only Hits is read per call.
type EntryInfo struct {
	ID       string    `json:"id"`
	Patterns int       `json:"patterns"`
	TotalLen int       `json:"totalLen"`
	Created  time.Time `json:"created"`
	Source   string    `json:"source"`
	PrepNs   int64     `json:"prepNs"` // time to publish: the compile or the load
	SnapKey  string    `json:"snapshotKey,omitempty"`
	Hits     int64     `json:"hits"`

	// Serving state, filled per call: the compiled dense automaton (if one
	// is live), whether the §3 stage is built, and the circuit-breaker
	// position.
	MaxPatLen       int   `json:"maxPatLen"`
	Dense           bool  `json:"dense"`
	DenseStates     int   `json:"denseStates,omitempty"`
	DenseTableBytes int64 `json:"denseTableBytes,omitempty"`
	Tree            bool  `json:"tree"`
	Degraded        bool  `json:"degraded"`
}

// Infos lists the resident entries, most recently used first.
func (r *Registry) Infos() []EntryInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]EntryInfo, 0, r.lru.Len())
	for el := r.lru.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*Entry).Info())
	}
	return out
}

// DegradedIDs lists the resident entries whose circuit breaker is open.
func (r *Registry) DegradedIDs() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var ids []string
	for el := r.lru.Front(); el != nil; el = el.Next() {
		if e := el.Value.(*Entry); e.Degraded() {
			ids = append(ids, e.ID)
		}
	}
	return ids
}

// RegistrySnapshot is the registry section of the metrics payload.
type RegistrySnapshot struct {
	Dicts        int   `json:"dicts"`
	Capacity     int   `json:"capacity"`
	Evictions    int64 `json:"evictions"`
	PatternBytes int64 `json:"patternBytes"`
	TreeForced   int   `json:"treeForced"` // resident entries whose §3 stage is built
	Degraded     int   `json:"degraded"`
}

// Snapshot returns occupancy counters for GET /metrics.
func (r *Registry) Snapshot() RegistrySnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := RegistrySnapshot{
		Dicts:        r.lru.Len(),
		Capacity:     r.capacity,
		Evictions:    r.evictions,
		PatternBytes: r.bytes,
	}
	for el := r.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*Entry)
		if e.Degraded() {
			snap.Degraded++
		}
		if e.stage.Load() != nil {
			snap.TreeForced++
		}
	}
	return snap
}
