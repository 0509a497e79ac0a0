//go:build !unix

package serve

import "errors"

// No anonymous mappings here: every slab takes the cache's heap fallback.
var (
	mapRows   = func(int) ([]byte, error) { return nil, errors.ErrUnsupported }
	unmapRows = func([]byte) error { return nil }
)
