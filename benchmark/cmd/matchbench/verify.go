package main

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
)

// A verifier judges replies against answers precomputed with
// internal/ahocorasick. The cheap form checks the status and the reported
// count by byte search; the full form decodes every hit and compares
// position, pattern and length.

// matchReply is the part of a POST /match reply the verifier reads.
type matchReply struct {
	Matched int   `json:"matched"`
	Hits    []hit `json:"hits"`
}

// matchCheck returns the check for a buffered match reply that must carry
// exactly want.
func matchCheck(want []hit) func(status int, body []byte, full bool) error {
	needle := []byte(`"matched":` + strconv.Itoa(len(want)) + `,`)
	return func(status int, body []byte, full bool) error {
		if status != http.StatusOK {
			return fmt.Errorf("status %d: %s", status, clip(body))
		}
		if !full {
			if !bytes.Contains(body, needle) {
				return fmt.Errorf("reply lacks %s: %s", needle, clip(body))
			}
			return nil
		}
		var got matchReply
		if err := json.Unmarshal(body, &got); err != nil {
			return fmt.Errorf("decode reply: %w", err)
		}
		if got.Matched != len(got.Hits) {
			return fmt.Errorf("reply says matched=%d but carries %d hits", got.Matched, len(got.Hits))
		}
		return sameHits(got.Hits, want)
	}
}

// sameHits compares two hit lists position by position.
func sameHits(got, want []hit) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d hits, oracle has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("hit %d is %+v, oracle has %+v", i, got[i], want[i])
		}
	}
	return nil
}

// streamCheck returns the check for an NDJSON reply of /match/stream or
// /match/compressed: one event per line, then a summary line whose event
// count equals the oracle's. A reply without the summary is a failed stream,
// whatever its status.
func streamCheck(want []hit) func(status int, body []byte, full bool) error {
	needle := []byte(`"events":` + strconv.Itoa(len(want)))
	return func(status int, body []byte, full bool) error {
		if status != http.StatusOK {
			return fmt.Errorf("status %d: %s", status, clip(body))
		}
		lines := bytes.Split(bytes.TrimRight(body, "\n"), []byte("\n"))
		last := lines[len(lines)-1]
		if !bytes.HasPrefix(last, []byte(`{"summary":`)) {
			return fmt.Errorf("stream ended without a summary: %s", clip(last))
		}
		// The count must not be a prefix of a longer number.
		i := bytes.Index(last, needle)
		if i < 0 || (i+len(needle) < len(last) && last[i+len(needle)] >= '0' && last[i+len(needle)] <= '9') {
			return fmt.Errorf("summary lacks %s: %s", needle, clip(last))
		}
		if len(lines)-1 != len(want) {
			return fmt.Errorf("%d event lines, oracle has %d", len(lines)-1, len(want))
		}
		if !full {
			return nil
		}
		got := make([]hit, len(lines)-1)
		for k, line := range lines[:len(lines)-1] {
			if err := json.Unmarshal(line, &got[k]); err != nil {
				return fmt.Errorf("decode event %d: %w", k, err)
			}
		}
		return sameHits(got, want)
	}
}

// createdCheck accepts a 201 from POST /v1/dicts and stores the new id.
func createdCheck(id *string) func(int, []byte, bool) error {
	return func(status int, body []byte, _ bool) error {
		if status != http.StatusCreated {
			return fmt.Errorf("register: status %d: %s", status, clip(body))
		}
		var created dictInfo
		if err := json.Unmarshal(body, &created); err != nil || created.ID == "" {
			return fmt.Errorf("register: no id in reply: %s", clip(body))
		}
		*id = created.ID
		return nil
	}
}

// clip shortens a reply for an error message.
func clip(b []byte) string {
	if len(b) > 200 {
		return string(b[:200]) + "…"
	}
	return string(b)
}

// matchBody is the JSON body of a buffered match request for text.
func matchBody(text []byte) []byte {
	return []byte(`{"textB64":"` + base64.StdEncoding.EncodeToString(text) + `"}`)
}

// dictBody is the JSON body that registers patterns.
func dictBody(patterns [][]byte) []byte {
	enc := make([]string, len(patterns))
	for i, p := range patterns {
		enc[i] = base64.StdEncoding.EncodeToString(p)
	}
	b, _ := json.Marshal(map[string][]string{"patternsB64": enc}) // strings always marshal
	return b
}
