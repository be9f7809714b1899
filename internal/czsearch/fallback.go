package czsearch

import (
	"context"
	"io"

	"repro/internal/stream"
)

// Fallback is the tree-walk engine for entries with no compiled dense
// automaton (table over budget, dense disabled): the windowed uncompressor
// fused to the streaming Las Vegas matcher through a pipe. Output is
// identical to the Scanner's by the halo argument of internal/stream, but
// every represented byte is materialized and matched, so BytesTouched ==
// BytesRepresented — the serving metrics count these runs as fallbacks.
type Fallback struct {
	u *stream.Uncompressor
}

// NewFallback validates the container header on r — before the caller
// commits to a response status — and returns the fused pipeline.
func NewFallback(r io.Reader, cfg Config) (*Fallback, error) {
	u, err := stream.NewUncompressor(r, stream.UncompressConfig{
		Window:    cfg.Window,
		MaxOutput: cfg.MaxOutput,
	})
	if err != nil {
		return nil, err
	}
	return &Fallback{u: u}, nil
}

// N returns the container header's represented length.
func (f *Fallback) N() int { return f.u.N() }

// Run decompresses and matches concurrently: the uncompressor feeds one end
// of a pipe, the halo-segmented matcher drains the other. Either side's
// error tears the pipe down and surfaces.
func (f *Fallback) Run(ctx context.Context, tm stream.TextMatcher, scfg stream.Config, sink Sink) (Stats, error) {
	pr, pw := io.Pipe()
	type ures struct {
		st  stream.Stats
		err error
	}
	uc := make(chan ures, 1)
	go func() {
		st, err := f.u.Run(ctx, pw)
		if err != nil {
			pw.CloseWithError(err)
		} else {
			pw.Close()
		}
		uc <- ures{st: st, err: err}
	}()
	mst, merr := stream.Match(ctx, tm, pr, fallbackSink{sink}, scfg)
	pr.CloseWithError(merr) // unblock the producer if the matcher quit first
	ur := <-uc

	stats := Stats{
		Tokens:           ur.st.Events, // uncompressor counts one event per token
		BytesRepresented: ur.st.TextBytes,
		BytesTouched:     ur.st.TextBytes,
		Events:           mst.Events,
		MaxResident:      ur.st.MaxResident,
	}
	if merr != nil {
		return stats, merr
	}
	return stats, ur.err
}

// fallbackSink adapts a czsearch Sink to the stream matcher's sink interface.
type fallbackSink struct{ sink Sink }

func (fs fallbackSink) MatchEvent(e stream.MatchEvent) error { return fs.sink(e) }
