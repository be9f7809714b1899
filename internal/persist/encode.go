package persist

import (
	"encoding/binary"
	"hash/crc32"

	"repro/internal/core"
)

// castagnoli is the CRC32-C table (same polynomial iSCSI and ext4 use; it
// has better error-detection properties than IEEE for short bursts).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Encode serializes a preprocessed dictionary into the versioned snapshot
// format. The output is deterministic: the same dictionary state always
// yields the same bytes (Weiner links are sorted by key at export).
func Encode(d *core.Dictionary) []byte {
	return EncodeSnapshot(d.Export())
}

// EncodeSnapshot serializes an exported snapshot.
func EncodeSnapshot(s *core.Snapshot) []byte {
	return sealSnapshot(encodeSections(s))
}

// encodeSections emits magic, version and the core sections — everything but
// the footer — so bundle encoders can append extra sections before sealing.
func encodeSections(s *core.Snapshot) []byte {
	out := make([]byte, 0, 1<<16)
	out = append(out, magic[:]...)
	out = binary.LittleEndian.AppendUint32(out, Version)

	out = appendSection(out, secHeader, encodeHeader(s))
	out = appendSection(out, secPatterns, encodePatterns(s.Patterns))
	out = appendSection(out, secTree, encodeTree(s))
	out = appendSection(out, secWeiner, encodeWeiner(s))
	out = appendSection(out, secStep2, encodeStep2(s))
	if s.SepChainLen != nil {
		out = appendSection(out, secSeparator, encodeSeparator(s))
	}
	return out
}

// sealSnapshot appends the whole-file CRC footer.
func sealSnapshot(out []byte) []byte {
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, castagnoli))
}

func appendSection(out []byte, id byte, payload []byte) []byte {
	out = append(out, id)
	out = binary.AppendUvarint(out, uint64(len(payload)))
	out = append(out, payload...)
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, castagnoli))
}

func encodeHeader(s *core.Snapshot) []byte {
	var flags uint64
	if s.UseNaive {
		flags |= flagUseNaive
	}
	if s.SepChainLen != nil {
		flags |= flagHasSeparator
	}
	patBytes := 0
	for _, p := range s.Patterns {
		patBytes += len(p)
	}
	b := binary.AppendUvarint(nil, s.Seed)
	b = binary.AppendUvarint(b, uint64(s.Anchor))
	b = binary.AppendUvarint(b, uint64(s.WindowL))
	b = binary.AppendUvarint(b, flags)
	b = binary.AppendUvarint(b, uint64(len(s.Patterns)))
	b = binary.AppendUvarint(b, uint64(patBytes))
	b = binary.AppendUvarint(b, uint64(s.Tree.NumNodes))
	b = binary.AppendUvarint(b, uint64(len(s.Tree.SA)))
	b = binary.AppendUvarint(b, uint64(len(s.WeinerKeys)))
	b = binary.AppendUvarint(b, uint64(len(s.SepChainData)))
	return b
}

// encodeOptionsHeader is the header of a table-less file: the options the
// dictionary is preprocessed with, and zero table counts.
func encodeOptionsHeader(patterns [][]byte, opts core.Options) []byte {
	flags := uint64(flagNoTables)
	switch opts.NCA {
	case core.NCANaive:
		flags |= flagUseNaive
	case core.NCAImproved:
		flags |= flagImprovedNCA
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	patBytes := 0
	for _, p := range patterns {
		patBytes += len(p)
	}
	b := binary.AppendUvarint(nil, seed)
	b = binary.AppendUvarint(b, uint64(opts.Anchor))
	b = binary.AppendUvarint(b, uint64(opts.WindowL))
	b = binary.AppendUvarint(b, flags)
	b = binary.AppendUvarint(b, uint64(len(patterns)))
	b = binary.AppendUvarint(b, uint64(patBytes))
	for range 4 { // nodes, leaves, Weiner links, separator data
		b = binary.AppendUvarint(b, 0)
	}
	return b
}

func encodePatterns(patterns [][]byte) []byte {
	var b []byte
	for _, p := range patterns {
		b = binary.AppendUvarint(b, uint64(len(p)))
	}
	for _, p := range patterns {
		b = append(b, p...)
	}
	return b
}

func encodeTree(s *core.Snapshot) []byte {
	t := s.Tree
	b := binary.AppendUvarint(nil, uint64(t.Root))
	b = appendU32s(b, t.SA)
	b = appendU32s(b, t.LCP)
	b = appendS32s(b, t.Parent)
	b = appendU32s(b, t.StrDepth)
	b = appendU32s(b, t.Lo)
	b = appendU32s(b, t.Hi)
	b = appendU32s(b, t.LeafID)
	b = appendS32s(b, t.LeafOf)
	b = appendS32s(b, t.SufLink)
	return b
}

func encodeWeiner(s *core.Snapshot) []byte {
	var b []byte
	// Keys are sorted and strictly increasing; delta-code them.
	prev := int64(0)
	for _, k := range s.WeinerKeys {
		b = binary.AppendUvarint(b, uint64(k-prev))
		prev = k
	}
	for _, v := range s.WeinerVals {
		b = binary.AppendUvarint(b, uint64(v))
	}
	return b
}

func encodeStep2(s *core.Snapshot) []byte {
	b := appendU32s(nil, s.M1)
	b = appendU32s(b, s.H)
	b = appendS32s(b, s.MinPat)
	b = appendS32s(b, s.MinPatID)
	b = appendS64s(b, s.RPE)
	b = appendS64s(b, s.FullAtH)
	return b
}

func encodeSeparator(s *core.Snapshot) []byte {
	b := appendU32s(nil, s.SepChainLen)
	return appendU32s(b, s.SepChainData)
}

// appendU32s varint-codes a non-negative int32 slice.
func appendU32s(b []byte, vals []int32) []byte {
	for _, v := range vals {
		b = binary.AppendUvarint(b, uint64(uint32(v)))
	}
	return b
}

// appendS32s zigzag-codes an int32 slice (values may be -1).
func appendS32s(b []byte, vals []int32) []byte {
	for _, v := range vals {
		b = binary.AppendVarint(b, int64(v))
	}
	return b
}

// appendS64s zigzag-codes an int64 slice.
func appendS64s(b []byte, vals []int64) []byte {
	for _, v := range vals {
		b = binary.AppendVarint(b, v)
	}
	return b
}
