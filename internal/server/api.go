// In-process entry points: the batch-aware serving paths the HTTP handlers
// use, exposed without the transport. Embedding callers (matchbench's
// layer probes among them) drive the same serveMatch/serveParse routing —
// eligible requests coalesce with concurrent HTTP traffic on the same
// entry — with none of the JSON/base64 framing cost.
package server

import (
	"context"
	"errors"

	"repro/internal/core"
)

// ErrUnknownDict is returned by Match and Parse when no resident dictionary
// has the given id.
var ErrUnknownDict = errors.New("server: unknown dictionary")

// Match answers one match request in process. It returns the longest match
// per text position, the Las Vegas attempt count, and the engine label
// ("tree" or "dense"). Under -batch the request is coalesced exactly as an
// HTTP request would be.
func (s *Server) Match(ctx context.Context, id string, text []byte) ([]core.Match, int, string, error) {
	e, ok := s.reg.Get(id)
	if !ok {
		return nil, 0, "", ErrUnknownDict
	}
	return s.serveMatch(ctx, e, text)
}

// Parse answers one §5 optimal-parse request in process: the minimum-phrase
// parse of text as dictionary-word references, or an error when no parse
// exists. Batched exactly as Match is.
func (s *Server) Parse(ctx context.Context, id string, text []byte) ([]int32, error) {
	e, ok := s.reg.Get(id)
	if !ok {
		return nil, ErrUnknownDict
	}
	return s.serveParse(ctx, e, text)
}
