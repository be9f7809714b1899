package czsearch

import (
	"context"
	"fmt"
	"io"
	"slices"
	"sort"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/dense"
	"repro/internal/lz"
)

// expandBelowMeanToken is the cutover between the scanner's two modes, as a
// mean token length N/TokenCount read from the container header: below it
// Run expands the tokens and scans the bytes with a dense.Cursor, at or
// above it the token scanner (resync, replay, memo) runs. Gawrychowski's
// bound for matching in LZ-compressed text is O(n log(N/n) + m) in the
// number of phrases n, so at N/n of a few bytes the compressed domain has
// nothing to give, and what the token scanner pays per token — a memo
// lookup, a relOcc slice, the appends, ≈ 130 ns — is pure loss.
//
// Token scanner ÷ expanded, represented bytes per second, same container
// (128 KiB texts, lz.CompressSequential, best of 7, one CPU; BenchmarkModes
// re-measures it), first over dictionaries that hardly ever match:
//
//	mean token (B)      3.0   8.7   15.4  22.0  29.4  47.7  137
//	maxPatLen 6         0.31  0.51  0.79  0.60  1.25  1.70  4.36
//	maxPatLen 16        0.33  0.54  0.83  0.64  1.20  1.69  4.40
//	maxPatLen 64        0.32  0.51  0.73  0.97  1.27  1.62  4.55
//	16, half planted    0.32  0.43  0.44  0.50  0.63  0.78  1.49
//
// The tie does not move with MaxPatternLen(): the loss is the per-token
// bookkeeping, not the ≤ maxPatLen resync run, so the constant is not a
// function of the dictionary's shape. It does move with match density, which
// no header knows — the last row's dictionary is half cut from the text, the
// token scanner replays every occurrence, and the tie sits near 100 B. 32 is
// just above the low-density tie: the token scanner is kept where it wins
// even when matches are rare.
const expandBelowMeanToken = 32

// expandFeedBytes is how many expanded bytes the expanded mode lets
// accumulate before it runs the cursor over them: long enough that the
// cursor's loop, not the call into it, is the cost.
const expandFeedBytes = 16 << 10

// scanMode is a test-only override of Run's choice.
type scanMode int8

const (
	modeFromHeader scanMode = iota
	modeTokens
	modeExpanded
)

// occurrence is one pattern occurrence keyed by its END position. The
// scanner keeps occurrences of the retained history in nondecreasing end
// order (same-end entries in the automaton's longest-first output order), so
// a copy-token replay is a binary search plus a run of appends.
type occurrence struct {
	end    int64
	pat    int32
	length int32
}

// ringSlot is the pending longest-match-starting-here for one text position
// that is not yet final. length 0 means no occurrence seen.
type ringSlot struct {
	pat    int32
	length int32
}

// memoKey identifies a copy token by its entry state and wire form. Token
// sources are absolute offsets into this container's represented text, so a
// key is only meaningful within one run — the cache resets per Run.
type memoKey struct {
	state int32
	src   int32
	len   int32
}

// memoEntry is everything needed to replay a token without touching bytes:
// the exit state, the occurrences relative to the token start, and the
// destination of the scan that populated the entry (its state history is
// bulk-copied so the replayed region stays a valid future copy source).
type memoEntry struct {
	exit      int32
	firstDest int64
	events    []relOcc
}

// relOcc is an occurrence relative to a token start: end offset in [1, len].
type relOcc struct {
	endOff int32
	pat    int32
	length int32
}

// Scanner matches a dictionary against an LZ1R1 token stream on the dense
// compiled automaton. A Scanner is reusable (Run resets it first) but not
// safe for concurrent use; the serving layer pools them.
type Scanner struct {
	aut      *dense.Automaton
	cfg      Config
	maxPat   int
	ringMask int64
	memoCap  int

	state     int32
	pos       int64 // absolute represented bytes consumed
	hist      []byte
	stateHist []int32 // stateHist[i] = automaton state after byte histStart+i
	histStart int64   // absolute offset of hist[0]

	occ []occurrence

	ring    []ringSlot
	flushed int64 // next start position not yet emitted
	live    int   // ring slots holding a pending occurrence

	memo map[memoKey]memoEntry

	// Expanded mode only: the carried-state cursor of this run (nil in
	// token mode) and how much of hist it has consumed.
	cur  *dense.Cursor
	fed  int
	emit func(pos int64, m core.Match) error

	force scanMode // tests only

	sink  Sink
	stats Stats
}

// NewScanner builds a scanner over a compiled automaton.
func NewScanner(aut *dense.Automaton, cfg Config) *Scanner {
	maxPat := aut.MaxPatternLen()
	ringSize := 1
	for ringSize < maxPat {
		ringSize <<= 1
	}
	s := &Scanner{
		aut:      aut,
		cfg:      cfg,
		maxPat:   maxPat,
		ring:     make([]ringSlot, ringSize),
		ringMask: int64(ringSize - 1),
	}
	if cfg.MemoMaxEntries >= 0 {
		s.memoCap = cfg.MemoMaxEntries
		if s.memoCap == 0 {
			s.memoCap = DefaultMemoMaxEntries
		}
		s.memo = make(map[memoKey]memoEntry)
	}
	s.emit = func(pos int64, m core.Match) error {
		s.stats.Events++
		return s.sink(Event{Pos: pos, PatternID: m.PatternID, Length: m.Length})
	}
	return s
}

// Reset returns the scanner to its initial state, keeping allocations. The
// memo cache is cleared too: its keys are absolute offsets of one
// container's text and mean nothing to the next.
func (s *Scanner) Reset() {
	s.state = 0
	s.pos = 0
	s.histStart = 0
	s.hist = s.hist[:0]
	s.stateHist = s.stateHist[:0]
	s.occ = s.occ[:0]
	for i := range s.ring {
		s.ring[i] = ringSlot{}
	}
	s.flushed = 0
	s.live = 0
	clear(s.memo)
	s.cur = nil
	s.fed = 0
	s.sink = nil
	s.stats = Stats{}
}

// Run consumes every token from dec and emits each represented position's
// longest match to sink, in position order, exactly as decompress-then-match
// would. The mode comes from the container header (expandBelowMeanToken);
// the header is untrusted, and a lying token count costs speed and nothing
// else — both modes validate every token in expand and produce the same
// events. The accounting invariant BytesTouched + SyncSkipped + MemoBytes ==
// BytesRepresented holds on success: every represented byte is either fed
// through the automaton, fast-forwarded after a state coincidence, or
// replayed from the memo (expanded mode: all of them are fed).
func (s *Scanner) Run(ctx context.Context, dec *lz.Decoder, sink Sink) (Stats, error) {
	s.Reset()
	s.sink = sink
	if s.expands(dec) {
		s.stats.Expanded = true
		s.cur = s.aut.NewCursor()
	}
	for tok := int64(0); ; tok++ {
		if tok&0x3ff == 0 {
			if err := ctx.Err(); err != nil {
				return s.stats, err
			}
		}
		if err := chaos.Err(chaos.CzTruncate, "read"); err != nil {
			return s.stats, tokenError(tok, err)
		}
		t, err := dec.NextToken()
		if err == io.EOF {
			break
		}
		if err != nil {
			return s.stats, err
		}
		s.stats.Tokens++
		at, err := s.expand(t, tok)
		if err != nil {
			return s.stats, err
		}
		if s.cur != nil {
			err = s.feed(expandFeedBytes)
		} else {
			err = s.scanToken(t, at)
		}
		if err != nil {
			return s.stats, err
		}
		if len(s.hist) > s.stats.MaxResident {
			s.stats.MaxResident = len(s.hist)
		}
		if err := s.trim(); err != nil {
			return s.stats, err
		}
	}
	if err := s.finish(); err != nil {
		return s.stats, err
	}
	if s.stats.BytesRepresented != int64(dec.N()) {
		return s.stats, fmt.Errorf("lz: decoded %d bytes, header says %d", s.stats.BytesRepresented, dec.N())
	}
	return s.stats, nil
}

// expands reports whether the header's mean token length N/TokenCount is
// below the cutover.
func (s *Scanner) expands(dec *lz.Decoder) bool {
	if s.force != modeFromHeader {
		return s.force == modeExpanded
	}
	return uint64(dec.N()) < expandBelowMeanToken*dec.TokenCount()
}

// expand validates one token against what has been represented so far — the
// output cap, and for a copy its source range and the retained window — and
// materializes its bytes at the end of the history, where they may be the
// source of later copies. It returns the history index of the token's first
// byte. This is the only token validation there is; both modes go through
// it before they look at a byte.
func (s *Scanner) expand(t lz.Token, tok int64) (int, error) {
	at := len(s.hist)
	if t.IsLiteral() {
		if s.cfg.MaxOutput > 0 && s.pos+1 > s.cfg.MaxOutput {
			return 0, ErrOutputExceeded
		}
		s.hist = append(s.hist, t.Lit)
		s.pos++
		s.stats.Literals++
		s.stats.BytesRepresented++
		return at, nil
	}
	src, n := int64(t.Src), int(t.Len)
	if src < 0 || src >= s.pos {
		return 0, tokenError(tok, fmt.Errorf("lz: token source %d out of range (have %d bytes)", t.Src, s.pos))
	}
	if s.cfg.MaxOutput > 0 && s.pos+int64(n) > s.cfg.MaxOutput {
		return 0, ErrOutputExceeded
	}
	if src < s.histStart {
		return 0, tokenError(tok, fmt.Errorf("%w: source %d precedes retained offset %d", ErrWindowExceeded, src, s.histStart))
	}
	// Self-referential copies (source overlapping destination) are legal
	// LZ1; CopyWithin reads each byte only after it is written.
	s.hist = slices.Grow(s.hist, n)[:at+n]
	lz.CopyWithin(s.hist, at, int(src-s.histStart), n)
	s.pos += int64(n)
	s.stats.Copies++
	s.stats.BytesRepresented += int64(n)
	return at, nil
}

// feed runs the cursor over the expanded bytes it has not consumed yet, once
// at least min of them are waiting.
func (s *Scanner) feed(min int) error {
	fresh := s.hist[s.fed:]
	if len(fresh) < min {
		return nil
	}
	s.fed = len(s.hist)
	s.stats.BytesTouched += int64(len(fresh))
	return s.cur.Feed(fresh, s.emit)
}

// finish ends the represented text: what is still pending is final.
func (s *Scanner) finish() error {
	if s.cur == nil {
		return s.flushTo(s.pos)
	}
	if err := s.feed(0); err != nil {
		return err
	}
	return s.cur.Flush(s.emit)
}

// scanToken is the token mode's step over one expanded token whose bytes
// begin at hist[at].
func (s *Scanner) scanToken(t lz.Token, at int) error {
	var err error
	if t.IsLiteral() {
		err = s.scanLiteral(s.hist[at])
	} else {
		err = s.scanCopy(t, at)
	}
	if err != nil {
		return err
	}
	// Stream events out promptly: every start more than maxPat behind the
	// scan frontier is final. O(1) when nothing is pending.
	return s.flushTo(s.pos - int64(s.maxPat) + 1)
}

// scanLiteral consumes one literal byte: one automaton transition.
func (s *Scanner) scanLiteral(b byte) error {
	s.state = s.aut.Step(s.state, b)
	s.stateHist = append(s.stateHist, s.state)
	s.stats.BytesTouched++
	if s.aut.HasOutputs(s.state) {
		for _, p := range s.aut.Outputs(s.state) {
			if err := s.record(s.pos, p, s.aut.PatternLen(p)); err != nil {
				return err
			}
		}
	}
	return nil
}

// scanCopy consumes a copy token (src, len) whose bytes expand put at
// hist[dIdx:]: the automaton only scans until its state coincides with the
// recorded state at the same source offset — guaranteed within maxPatLen
// bytes, because the dense-DFA state is a pure function of the last
// maxPatLen input bytes and destination and source share those bytes from
// offset maxPatLen on. The remainder is a bulk state-history copy plus an
// occurrence replay.
func (s *Scanner) scanCopy(t lz.Token, dIdx int) error {
	n := int(t.Len)
	srcAbs := int64(t.Src)
	sIdx := int(srcAbs - s.histStart)
	dAbs := s.pos - int64(n)
	s.stateHist = slices.Grow(s.stateHist, n)[:dIdx+n]

	entry := s.state
	key := memoKey{state: entry, src: t.Src, len: t.Len}
	cacheable := s.memo != nil && n <= DefaultMemoMaxTokens
	if cacheable {
		if e, ok := s.memo[key]; ok && e.firstDest >= s.histStart {
			// Memo hit: same entry state, same source bytes ⇒ the whole
			// state trajectory repeats. Replay it without touching a byte.
			fIdx := int(e.firstDest - s.histStart)
			copy(s.stateHist[dIdx:dIdx+n], s.stateHist[fIdx:fIdx+n])
			for _, ro := range e.events {
				if err := s.record(dAbs+int64(ro.endOff), ro.pat, ro.length); err != nil {
					return err
				}
			}
			s.state = e.exit
			s.stats.MemoHits++
			s.stats.MemoBytes += int64(n)
			return nil
		}
	}

	occBefore := len(s.occ)
	synced := -1
	for j := 0; j < n; j++ {
		s.state = s.aut.Step(s.state, s.hist[dIdx+j])
		s.stateHist[dIdx+j] = s.state
		s.stats.BytesTouched++
		if s.aut.HasOutputs(s.state) {
			end := dAbs + int64(j) + 1
			for _, p := range s.aut.Outputs(s.state) {
				if err := s.record(end, p, s.aut.PatternLen(p)); err != nil {
					return err
				}
			}
		}
		if s.state == s.stateHist[sIdx+j] {
			synced = j
			break
		}
	}
	if synced >= 0 && synced < n-1 {
		// States coincide at offset `synced`; offsets synced+1..n-1 replay
		// the source's states and occurrences, shifted by delta.
		rem := n - synced - 1
		lz.CopyWithin(s.stateHist, dIdx+synced+1, sIdx+synced+1, rem)
		s.state = s.stateHist[dIdx+n-1]
		s.stats.SyncSkipped += int64(rem)
		lo := srcAbs + int64(synced) + 1 // replay source ends in (lo, hi]
		hi := srcAbs + int64(n)
		delta := dAbs - srcAbs
		i := sort.Search(len(s.occ), func(k int) bool { return s.occ[k].end > lo })
		// The loop bound re-reads len(s.occ): with a self-referential copy
		// the replay appends occurrences that are themselves sources for
		// later offsets of the same token.
		for ; i < len(s.occ) && s.occ[i].end <= hi; i++ {
			o := s.occ[i]
			if err := s.record(o.end+delta, o.pat, o.length); err != nil {
				return err
			}
		}
	}

	if cacheable {
		s.stats.MemoMisses++
		if evs := s.occ[occBefore:]; len(evs) <= DefaultMemoMaxEvents {
			rel := make([]relOcc, len(evs))
			for k, o := range evs {
				rel[k] = relOcc{endOff: int32(o.end - dAbs), pat: o.pat, length: o.length}
			}
			e := memoEntry{exit: s.state, firstDest: dAbs, events: rel}
			if chaos.Fire(chaos.CzCache) {
				// Poison the cached exit state: later hits on this key
				// replay from the wrong state. The serving layer's canary,
				// a decompress-then-walk, must catch this.
				e.exit = otherState(s.aut, e.exit)
			}
			if len(s.memo) >= s.memoCap {
				clear(s.memo)
			}
			s.memo[key] = e
		}
	}
	return nil
}

// otherState returns a valid automaton state other than q — the root, or
// when q is the root a state one byte from it — for the cache poison: a
// state is a row offset, so arithmetic on q would not name one.
func otherState(aut *dense.Automaton, q int32) int32 {
	if q != 0 {
		return 0
	}
	for b := 0; b < 256; b++ {
		if r := aut.Step(0, byte(b)); r != 0 {
			return r
		}
	}
	return 0 // unreachable: every pattern's first byte leaves the root
}

// record notes one occurrence by end position: it is appended to the replay
// history and folded into the pending per-start ring (longest pattern wins;
// first-recorded wins ties, matching dense.MatchInto). Ends arrive in
// nondecreasing order, so every start more than maxPat before the newest
// end is final and can be flushed.
func (s *Scanner) record(end int64, pat, length int32) error {
	if err := s.flushTo(end - int64(s.maxPat)); err != nil {
		return err
	}
	s.occ = append(s.occ, occurrence{end: end, pat: pat, length: length})
	slot := &s.ring[(end-int64(length))&s.ringMask]
	if slot.length == 0 {
		*slot = ringSlot{pat: pat, length: length}
		s.live++
	} else if length > slot.length {
		*slot = ringSlot{pat: pat, length: length}
	}
	return nil
}

// flushTo emits events for all pending starts < limit, in start order.
func (s *Scanner) flushTo(limit int64) error {
	for s.flushed < limit {
		if s.live == 0 {
			s.flushed = limit
			return nil
		}
		slot := &s.ring[s.flushed&s.ringMask]
		if slot.length != 0 {
			s.stats.Events++
			ev := Event{Pos: s.flushed, PatternID: slot.pat, Length: slot.length}
			*slot = ringSlot{}
			s.live--
			if err := s.sink(ev); err != nil {
				return err
			}
		}
		s.flushed++
	}
	return nil
}

// trim enforces the history window with the uncompressor's lazy discipline:
// only when the history exceeds twice the window is it cut back to exactly
// the window. What can never be a copy source again goes with it: in token
// mode the state history and the occurrences whose ends fall behind the
// retained range; in expanded mode nothing but bytes the cursor has seen,
// so anything still unfed is fed first.
func (s *Scanner) trim() error {
	win := s.cfg.Window
	if win <= 0 || len(s.hist) <= 2*win {
		return nil
	}
	cut := len(s.hist) - win
	if s.cur != nil {
		if err := s.feed(0); err != nil {
			return err
		}
		s.fed = win
	} else {
		copy(s.stateHist, s.stateHist[cut:])
		s.stateHist = s.stateHist[:win]
	}
	s.histStart += int64(cut)
	copy(s.hist, s.hist[cut:])
	s.hist = s.hist[:win]
	if k := sort.Search(len(s.occ), func(i int) bool { return s.occ[i].end > s.histStart }); k > 0 {
		s.occ = s.occ[:copy(s.occ, s.occ[k:])]
	}
	return nil
}
