//go:build !amd64

package tensor

// withQuantBackends calls fn once per int8 kernel set this host can run:
// off amd64 that is the pure-Go set alone.
func withQuantBackends(fn func(backend string)) { fn("go") }

// withF64Backends calls fn once per float64 kernel tier this host can
// run: off amd64 that is the pure-Go tier alone.
func withF64Backends(fn func(tier string)) { fn("go") }
