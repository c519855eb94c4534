package stream

// Overload policies. The paper's deployment (~30M lines/day from ~100k
// machines) cannot afford a detector that stalls under a traffic spike: a
// wedged replica silently drops exactly the multi-line chains sessions
// exist to catch. The service therefore picks one of two behaviors when a
// shard's queue saturates:
//
//   - block: backpressure — Submit waits (bounded by its context).
//   - shed: refuse with ErrOverloaded; the HTTP layer maps it to 429 +
//     Retry-After so well-behaved producers back off.
//
// Precision is not an overload lever: the bundle alone picks it. A bundle
// that needs int8 speed under load is a cascade bundle (int8 triage, f64
// confirm), which serves at that speed all the time with the f64 alarms.

import "fmt"

// OverloadPolicy selects what Submit does when a target shard's queue is
// full.
type OverloadPolicy int

const (
	// OverloadBlock waits for queue space: lossless backpressure.
	OverloadBlock OverloadPolicy = iota
	// OverloadShed rejects with ErrOverloaded instead of queueing.
	OverloadShed
)

// String renders the policy (the clmserve flag values).
func (p OverloadPolicy) String() string {
	switch p {
	case OverloadBlock:
		return "block"
	case OverloadShed:
		return "shed"
	default:
		return fmt.Sprintf("OverloadPolicy(%d)", int(p))
	}
}

// ParseOverloadPolicy converts a flag value into an OverloadPolicy.
func ParseOverloadPolicy(s string) (OverloadPolicy, error) {
	switch s {
	case "", "block":
		return OverloadBlock, nil
	case "shed":
		return OverloadShed, nil
	default:
		return 0, fmt.Errorf("stream: unknown overload policy %q (want block | shed)", s)
	}
}
