package server

import (
	"encoding/hex"
	"errors"
	"net/http"
	"strconv"

	"repro/internal/persist"
)

// Snapshot administration ----------------------------------------------------
//
// POST /v1/dicts/{id}/snapshot serializes a resident dictionary to the cache
// under an explicit key; POST /v1/dicts/restore loads a snapshot back into
// the registry by key. Together with the automatic create-time write-through
// these let operators pin, migrate and prewarm dictionaries: snapshot on one
// server, copy the file, restore on another — preprocessing runs on neither.

type snapshotResponse struct {
	ID    string `json:"id"`
	Key   string `json:"key"`
	Bytes int    `json:"bytes"`
	Path  string `json:"path"`
}

// handleDictSnapshot writes the entry's current state (including any reseed
// it has absorbed) to the snapshot store. The snapshot's content address is
// derived from the entry's patterns and current seed, so a restore of these
// bytes reproduces this entry exactly.
func (s *Server) handleDictSnapshot(w http.ResponseWriter, r *http.Request) {
	if s.store == nil {
		writeError(w, http.StatusConflict, "no snapshot store: start the server with -cache-dir")
		return
	}
	e, ok := s.entryFor(w, r)
	if !ok {
		return
	}
	data := e.SnapshotBytes()
	key := persist.KeyForSnapshot(data)
	n, err := s.store.PutBytes(key, data)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "snapshot write failed: %v", err)
		return
	}
	s.metrics.recordSave(n)
	writeJSON(w, http.StatusOK, snapshotResponse{
		ID:    e.ID,
		Key:   key.String(),
		Bytes: n,
		Path:  s.store.Path(key),
	})
}

// handleDictSnapshotGet serves the raw DMSNAP bundle of a resident
// dictionary — the wire format of cluster replication. Unlike POST
// .../snapshot it needs no store: the bytes are encoded from the live entry
// (under its read lock), so the download always reflects the entry's
// current state, reseeds and compiled dense automaton included.
func (s *Server) handleDictSnapshotGet(w http.ResponseWriter, r *http.Request) {
	e, ok := s.entryFor(w, r)
	if !ok {
		return
	}
	data := e.SnapshotBytes()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	_, _ = w.Write(data)
}

type restoreRequest struct {
	Key string `json:"key"`
}

// handleDictRestore loads a stored snapshot into the registry as a new
// entry. The load reads the patterns and restores the automaton — the PRAM
// preprocess ledger does not move under -dense on.
func (s *Server) handleDictRestore(w http.ResponseWriter, r *http.Request) {
	if s.store == nil {
		writeError(w, http.StatusConflict, "no snapshot store: start the server with -cache-dir")
		return
	}
	var req restoreRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	raw, err := hex.DecodeString(req.Key)
	if err != nil || len(raw) != len(persist.Key{}) {
		writeError(w, http.StatusBadRequest, "key must be %d hex characters", 2*len(persist.Key{}))
		return
	}
	var key persist.Key
	copy(key[:], raw)
	lb, err := s.loadFromStore("", key, "snapshot")
	if err != nil {
		if errors.Is(err, persist.ErrNotFound) {
			writeError(w, http.StatusNotFound, "no snapshot %s", req.Key)
			return
		}
		// GetBundle quarantined and counted the invalid file.
		writeError(w, http.StatusUnprocessableEntity, "snapshot rejected: %v", err)
		return
	}
	writeJSON(w, http.StatusCreated, dictCreateResponse{
		ID:          lb.entry.ID,
		Patterns:    lb.entry.NumPatterns,
		TotalLen:    lb.entry.TotalLen,
		Source:      lb.entry.Source,
		SnapshotKey: key.String(),
		Evicted:     lb.evicted,
		Bytes:       lb.bytes,
	})
}
