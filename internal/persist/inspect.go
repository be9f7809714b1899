package persist

import (
	"encoding/binary"
	"fmt"

	"repro/internal/dense"
)

// SectionInfo describes one section of a snapshot file.
type SectionInfo struct {
	Name  string `json:"name"`
	Bytes int    `json:"bytes"`
}

// Info summarizes a snapshot file: what it holds and how the bytes divide
// among sections. Produced by Inspect (and cmd/dictpack inspect); all
// checksums have been verified by the time an Info is returned.
// HasSeparator, NumNodes, NumLeaves and WeinerCount describe the tables of
// a §3-form file, and are zero for the automaton form.
type Info struct {
	Version      uint32        `json:"version"`
	FileBytes    int           `json:"file_bytes"`
	Seed         uint64        `json:"seed"`
	Anchor       int           `json:"anchor"`
	WindowL      int           `json:"window_l"`
	UseNaive     bool          `json:"use_naive_nca"`
	HasSeparator bool          `json:"has_separator"`
	NumPatterns  int           `json:"num_patterns"`
	PatternBytes int           `json:"pattern_bytes"`
	NumNodes     int           `json:"num_nodes"`
	NumLeaves    int           `json:"num_leaves"`
	WeinerCount  int           `json:"weiner_count"`
	Sections     []SectionInfo `json:"sections"`
	Dense        *dense.Stats  `json:"dense,omitempty"` // nil when no DENSE section
}

// Inspect validates a snapshot's framing and checksums and reports its
// header and section layout without reconstructing the dictionary.
func Inspect(data []byte) (*Info, error) {
	sections, err := splitSections(data)
	if err != nil {
		return nil, err
	}
	h, err := parseHeader(sections[secHeader], len(data))
	if err != nil {
		return nil, err
	}
	info := &Info{
		Version:      binary.LittleEndian.Uint32(data[len(magic):]),
		FileBytes:    len(data),
		Seed:         h.seed,
		Anchor:       h.anchor,
		WindowL:      h.windowL,
		UseNaive:     h.flags&flagUseNaive != 0,
		HasSeparator: h.flags&flagHasSeparator != 0,
		NumPatterns:  h.numPatterns,
		PatternBytes: h.patternBytes,
		NumNodes:     h.numNodes,
		NumLeaves:    h.numLeaves,
		WeinerCount:  h.weinerCount,
	}
	for _, id := range []byte{secHeader, secPatterns, secTree, secWeiner, secStep2, secSeparator, secDense} {
		if payload, ok := sections[id]; ok {
			info.Sections = append(info.Sections, SectionInfo{Name: sectionNames[id], Bytes: len(payload)})
		}
	}
	if payload, ok := sections[secDense]; ok {
		st, err := dense.PayloadStats(payload)
		if err != nil {
			return nil, fmt.Errorf("%w: dense section: %v", ErrCorrupt, err)
		}
		info.Dense = &st
	}
	return info, nil
}

// Verify fully validates a snapshot: framing, checksums, header, patterns
// and DENSE, and it preprocesses the §3 dictionary the file describes
// (LoadBundle). It returns the Info on success.
func Verify(data []byte) (*Info, error) {
	info, err := Inspect(data)
	if err != nil {
		return nil, err
	}
	if _, _, err := LoadBundle(data); err != nil {
		return nil, fmt.Errorf("structural check failed: %w", err)
	}
	return info, nil
}
