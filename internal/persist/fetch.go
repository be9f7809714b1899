package persist

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
)

// HTTP bundle fetch: the replication pull of cluster mode (DESIGN.md §15).
// A node that needs a dictionary it does not hold fetches the owner's DMSNAP
// bundle from GET /v1/dicts/{id}/snapshot and validates it through the same
// codec the local store trusts — a peer is no more trusted than a disk. The
// returned raw bytes let the caller persist exactly what was validated.

// DefaultFetchLimit caps how many snapshot bytes one fetch will read. It
// comfortably exceeds any bundle a default-config server can serve (pattern
// bytes are bounded by MaxDictBytes=16 MiB, tables are linear in them).
const DefaultFetchLimit = 256 << 20

// StatusError is a fetch that reached the peer and got a non-200 answer.
// The code lets retry policy distinguish "peer is struggling" (5xx, worth
// retrying) from "peer simply lacks the bundle" (4xx, ask someone else).
type StatusError struct {
	URL  string
	Code int
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("persist: fetch %s: peer answered %d", e.URL, e.Code)
}

// ErrBadBundle marks a fetch whose bytes arrived but failed validation.
// Bundles are immutable content, so re-fetching the same bytes from the
// same peer cannot help — not retryable.
var ErrBadBundle = errors.New("persist: fetched bundle invalid")

// RetryableFetch reports whether a FetchBundle error is worth retrying
// against the same peer: transport errors and 5xx answers are; 4xx
// answers, invalid bundles, and the caller's own context expiry are not.
func RetryableFetch(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var se *StatusError
	if errors.As(err, &se) {
		return se.Code >= 500
	}
	return !errors.Is(err, ErrBadBundle)
}

// FetchBundle downloads the snapshot bundle for dictionary id from a peer's
// base URL and opens it with OpenBundle. limit <= 0
// selects DefaultFetchLimit; client == nil uses http.DefaultClient. On
// success it returns the validated raw bytes (ready for PutBytes) plus the
// bundle.
func FetchBundle(ctx context.Context, client *http.Client, base, id string, limit int64) ([]byte, *Bundle, error) {
	if client == nil {
		client = http.DefaultClient
	}
	if limit <= 0 {
		limit = DefaultFetchLimit
	}
	u := base + "/v1/dicts/" + url.PathEscape(id) + "/snapshot"
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("persist: fetch %s: %w", u, err)
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, nil, fmt.Errorf("persist: fetch %s: %w", u, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// Drain a little so the connection can be reused, then report.
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		return nil, nil, &StatusError{URL: u, Code: resp.StatusCode}
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, limit+1))
	if err != nil {
		return nil, nil, fmt.Errorf("persist: fetch %s: %w", u, err)
	}
	if int64(len(data)) > limit {
		return nil, nil, fmt.Errorf("persist: fetch %s: bundle exceeds %d bytes", u, limit)
	}
	b, err := OpenBundle(data)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: fetch %s: %w", ErrBadBundle, u, err)
	}
	return data, b, nil
}
