package local

import "errors"

// Typed errors of the engine surface. Every engine entry point returns
// errors wrapping these sentinels before the engine starts; only BuildView,
// whose signature has no error return, panics with ErrAdviceLength.
var (
	// ErrAdviceLength tags runs whose advice assignment does not cover
	// every node of the graph (advice must be nil or have exactly N()
	// entries).
	ErrAdviceLength = errors.New("local: advice length mismatch")

	// ErrNegativeRadius tags RunBall and RunDecider calls with a view
	// radius below zero. BFSWithin reads a negative radius as unbounded
	// while the message engines' gather decides after one round, so the
	// engines would disagree; both entry points reject it instead.
	ErrNegativeRadius = errors.New("local: negative view radius")
)
