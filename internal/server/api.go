// In-process entry points: the serving paths the HTTP handlers use, exposed
// without the transport. Embedding callers (matchbench's layer probes among
// them) drive the same engine choice as /match and /parse with none of the
// JSON/base64 framing cost.
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
// per text position (core.None where there is none), the Las Vegas attempt
// count, and the engine label, "dense" or "tree". A dense entry that can
// serve nothing, or a canary turn that diverged, is an error (oracle.go).
func (s *Server) Match(ctx context.Context, id string, text []byte) ([]core.Match, int, string, error) {
	e, ok := s.reg.Get(id)
	if !ok {
		return nil, 0, "", ErrUnknownDict
	}
	buf := eventPool.get()
	defer eventPool.put(buf)
	evs, attempts, engine, err := s.serveMatch(ctx, e, text, *buf)
	*buf = evs
	if err != nil {
		return nil, attempts, engine, err
	}
	out := make([]core.Match, len(text))
	for i := range out {
		out[i] = core.None
	}
	for _, ev := range evs {
		out[ev.Pos] = core.Match{PatternID: ev.PatternID, Length: ev.Length}
	}
	return out, attempts, engine, nil
}

// Parse answers one §5 optimal-parse request in process: the minimum-phrase
// parse of text as dictionary-word references, or an error when no parse
// exists.
func (s *Server) Parse(ctx context.Context, id string, text []byte) ([]int32, error) {
	e, ok := s.reg.Get(id)
	if !ok {
		return nil, ErrUnknownDict
	}
	return e.Parse(ctx, text, s.cfg.Procs, s.metrics)
}
