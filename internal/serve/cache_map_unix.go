//go:build unix

package serve

import "syscall"

// mapRows returns n zeroed bytes in an anonymous private mapping — memory the
// Go collector neither scans nor counts — and unmapRows takes back exactly
// what one mapRows call returned. Func values, so a test can make mapping fail.
var (
	mapRows = func(n int) ([]byte, error) {
		return syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	}
	unmapRows = syscall.Munmap
)
