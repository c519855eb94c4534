//go:build !amd64

package tensor

// withQuantBackends calls fn once per int8 kernel set this host can run:
// off amd64 that is the pure-Go set alone.
func withQuantBackends(fn func(backend string)) { fn("go") }
