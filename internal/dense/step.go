package dense

// Incremental stepping surface for compressed-domain matching
// (internal/czsearch). Scan, MatchInto and Cursor own the batch loops; a
// token-stream consumer instead advances the automaton byte by byte,
// interleaving transitions with its own history bookkeeping, and relies on
// the DFA invariant that the state after consuming text w is determined by
// the last MaxPatternLen() bytes of w alone. States are row offsets, root
// 0, and a pure function of the pattern list. All three methods are
// allocation-free; Outputs returns a view into the packed output table.
//
// With Width, Class and Row (and NumStates, PatternLen and MaxPatternLen in
// dense.go) the same methods are the read-only view ahocorasick.Certify
// checks a table through, once, before it serves.

// Step returns the state reached from q on input byte b — a class load and
// one table load, exactly the transition the scan kernel performs per byte.
func (a *Automaton) Step(q int32, b byte) int32 {
	return a.next[q+int32(a.symClass[b])]
}

// Outputs returns the pattern ids ending at state q, longest first — the
// same list, in the same order, that Scan emits when it enters q. The
// returned slice aliases the automaton's packed table and must not be
// modified.
func (a *Automaton) Outputs(q int32) []int32 {
	id := a.stateID(q)
	return a.outPat[a.outOff[id]:a.outOff[id+1]]
}

// HasOutputs reports whether any pattern ends at state q: the states with
// outputs are numbered last, so this is one compare against a threshold.
func (a *Automaton) HasOutputs(q int32) bool {
	return q >= a.outStart
}

// Width returns the number of byte classes, the absent class 0 included:
// the length of a row.
func (a *Automaton) Width() int { return int(a.width) }

// Class returns the column byte b reads: 0 for a byte in no pattern.
func (a *Automaton) Class(b byte) int { return int(a.symClass[b]) }

// Row returns state q's transitions, one row offset per class. It aliases
// the table and must not be modified.
func (a *Automaton) Row(q int32) []int32 {
	return a.next[q : q+a.width : q+a.width]
}
