package persist

import (
	"encoding/binary"
	"hash/crc32"

	"repro/internal/core"
)

// castagnoli is the CRC32-C table (same polynomial iSCSI and ext4 use; it
// has better error-detection properties than IEEE for short bursts).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

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
