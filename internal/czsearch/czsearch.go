// Package czsearch matches a prepared dictionary directly against LZ1/LZ1R1
// token streams — compressed-domain search, the missing bridge between the
// paper's two halves (§3 dictionary matching, §4/§5 LZ compression). It
// reports exactly the occurrences that decompress-then-match would, while
// feeding the automaton far fewer bytes than the stream represents.
//
// The algorithmic playbook is Gawrychowski's compressed pattern matching
// (arXiv:1104.4203, arXiv:1109.4034): occurrences internal to a copy token
// are re-used from the earlier scan of the token's source range, and only
// occurrences near token boundaries need fresh automaton work. The dense-DFA
// form of that idea is what the Scanner implements:
//
//   - The Aho–Corasick state after consuming text w is the longest suffix of
//     w that is a dictionary-trie node — a pure function of the last
//     MaxPatternLen() bytes of w. The state therefore IS the ≤ maxPatLen−1
//     bytes of trailing context the halo discipline of internal/stream
//     carries across windows; no separate boundary buffer exists.
//   - Scanning a copy token (src, len), the scanner steps the automaton byte
//     by byte and compares its state with the recorded state at the same
//     offset of the source range. The states must coincide within
//     maxPatLen−1 bytes (both positions then share their trailing context),
//     and from the first coincidence on, every later state and every later
//     occurrence of the token equals the source's, shifted — so the
//     remainder is a bulk state-history copy plus an occurrence replay, no
//     automaton transitions at all. Long copies of repetitive data cost
//     O(maxPatLen + occurrences) automaton work instead of O(len).
//   - A bounded memo cache keyed by (entry state, src, len) short-circuits
//     repeated tokens entirely: a hit replays the recorded exit state and
//     relative occurrences without touching a single byte.
//
// All of that is bookkeeping per token, and it only pays when tokens are
// long. Scanner.Run therefore reads the mean token length off the container
// header before the first token and, below expandBelowMeanToken, runs in
// expanded mode instead: the same validated expansion into the same
// retained history, but no state history, no occurrence list and no memo —
// the fresh bytes go to a carried-state dense.Cursor in long runs, at about
// the speed of decompress-then-match, where the token scanner ran at a
// third of it (scanner.go has the measured crossover).
//
// Correctness is pinned the repo's usual way: the equivalence suite and
// FuzzCzsearchEquivalence require byte-identical output to
// lz.Uncompress+matching across adversarial token shapes (overlapping
// self-referential copies, matches spanning ≥3 tokens, window-edge copies),
// and the serving layer checks its canary turns (request 1 and a sparse
// sample after it) against a decompress-then-walk of the certified table.
//
// When no compiled dense automaton exists (table over budget, dense
// disabled), Fallback fuses the windowed uncompressor with the streaming
// tree-walk matcher — same output, bytes touched equal to bytes
// represented, counted as a fallback in the serving metrics.
package czsearch

import (
	"errors"
	"fmt"

	"repro/internal/stream"
)

// ErrWindowExceeded aliases the streaming uncompressor's sentinel: a copy
// token reached back beyond the retained history of a windowed scan. Both
// engines (Scanner and Fallback) surface the same value, so callers have
// one errors.Is target.
var ErrWindowExceeded = stream.ErrWindowExceeded

// ErrOutputExceeded reports a container whose represented size exceeds the
// configured MaxOutput cap — zip-bomb protection for the service endpoint.
var ErrOutputExceeded = errors.New("czsearch: represented output exceeds cap")

// Event is one dictionary match in the represented text: the longest
// pattern starting at absolute position Pos — the paper's M[i] restricted
// to positions where a pattern matches. It is stream.MatchEvent itself, so
// every engine's events meet the serving layer's one canary comparison.
type Event = stream.MatchEvent

// Sink receives match events in position order, each position exactly once.
// A non-nil error aborts the scan.
type Sink func(Event) error

// Default memo-cache bounds. The cache is per-run (token sources are
// absolute text offsets, meaningless across containers) and resets
// wholesale when full, so these bound memory, not correctness.
const (
	DefaultMemoMaxEntries = 1 << 14
	DefaultMemoMaxTokens  = 256 // only tokens with Len ≤ this are cached
	DefaultMemoMaxEvents  = 32  // entries with more occurrences are not cached
)

// Config controls a compressed-domain scan.
type Config struct {
	// Window is the number of trailing represented bytes retained for copy
	// tokens to reference — the same contract as stream.UncompressConfig:
	// zero retains everything; a finite window is only sound for containers
	// produced with bounded back-references, and violations surface as
	// ErrWindowExceeded.
	Window int
	// MaxOutput, if positive, aborts once the represented size would exceed
	// it.
	MaxOutput int64
	// MemoMaxEntries caps the memo cache's entry count (0 = default;
	// negative disables the cache).
	MemoMaxEntries int
}

// Stats describes one scan: how much text the stream represented, how
// little of it the automaton actually consumed, and where the savings came
// from. BytesTouched ≤ BytesRepresented always; the gap is SyncSkipped
// (copy-token bytes fast-forwarded after state coincidence) plus MemoBytes
// (bytes of memo-hit tokens never touched at all). Expanded says which mode
// the Scanner ran in; an expanded run touches every byte, so its
// SyncSkipped and Memo* are zero.
type Stats struct {
	Expanded         bool  `json:"expanded"` // tokens expanded and scanned by a dense.Cursor
	Tokens           int64 `json:"tokens"`
	Literals         int64 `json:"literals"`
	Copies           int64 `json:"copies"`
	BytesRepresented int64 `json:"bytesRepresented"`
	BytesTouched     int64 `json:"bytesTouched"` // bytes fed through automaton transitions
	SyncSkipped      int64 `json:"syncSkipped"`  // copy bytes replayed via state coincidence
	MemoBytes        int64 `json:"memoBytes"`    // bytes replayed via memo hits
	MemoHits         int64 `json:"memoHits"`
	MemoMisses       int64 `json:"memoMisses"`
	Events           int64 `json:"events"`
	MaxResident      int   `json:"maxResident"` // peak retained history, bytes
}

// tokenError wraps a token-level failure with its ordinal so a corrupt
// container points at the offending token.
func tokenError(tok int64, err error) error {
	return fmt.Errorf("czsearch: token %d: %w", tok, err)
}
