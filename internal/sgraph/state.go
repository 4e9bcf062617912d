package sgraph

import "fmt"

// State is a node's belief state in the infected network snapshot, drawn
// from {-1, +1, 0, ?} per the paper's problem setting.
type State int8

// Node states. StateUnknown models nodes whose opinion could not be
// observed ("?" in the paper); StateInactive is a node the rumor has not
// reached.
const (
	StateNegative State = -1 // disagrees with the rumor
	StatePositive State = +1 // agrees with the rumor
	StateInactive State = 0  // no opinion / not infected
	StateUnknown  State = 2  // opinion exists but is unobserved
)

// Active reports whether the node holds an opinion (+1 or -1).
func (s State) Active() bool { return s == StatePositive || s == StateNegative }

// Sign converts an active state to its Sign. It panics on inactive or
// unknown states; callers must check Active first.
func (s State) Sign() Sign {
	switch s {
	case StatePositive:
		return Positive
	case StateNegative:
		return Negative
	}
	panic(fmt.Sprintf("sgraph: Sign of non-active state %v", s))
}

// StateOf converts a link sign to the state it induces: activation over a
// link with sign sig from a node in state src yields src.Sign * sig
// (s(v) = s(u) * s(u,v) in the paper).
func StateOf(src State, sig Sign) State {
	if !src.Active() {
		panic(fmt.Sprintf("sgraph: StateOf with non-active source state %v", src))
	}
	if int8(src)*int8(sig) > 0 {
		return StatePositive
	}
	return StateNegative
}

// LinkProbability is the MFC activation probability of a diffusion link
// with the given sign and weight under boosting coefficient alpha
// (Algorithm 1): min(1, alpha*w) on a positive link, w on a negative one.
// The simulator draws activations with it and extraction scores with it.
func LinkProbability(sign Sign, w, alpha float64) float64 {
	if sign == Positive {
		if bw := alpha * w; bw < 1 {
			return bw
		}
		return 1
	}
	return w
}

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StatePositive:
		return "+1"
	case StateNegative:
		return "-1"
	case StateInactive:
		return "0"
	case StateUnknown:
		return "?"
	default:
		return fmt.Sprintf("State(%d)", int8(s))
	}
}
