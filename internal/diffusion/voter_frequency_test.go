package diffusion

import (
	"fmt"
	"testing"

	"repro/internal/sgraph"
	"repro/internal/xrand"
)

// The tests in this file tie the voter model to the rule of Li, Chen, Wang
// and Zhang's signed voter model (arXiv 1111.4729): each round, every
// non-seed node picks one of its d_in in-links uniformly, and if the
// chosen in-neighbour u was active at the start of the round the node
// takes s(u,v)·x_u. Seeds are stubborn. Frequencies over mcRuns seeded
// runs are held to mcSigmas binomial σ of the closed form (see
// checkFrequency in mfc_frequency_test.go).

// TestVoterAdoptionFrequency runs one round into node 3, whose three
// in-neighbours are active seeds: 0 (+1) over a positive link, 1 (+1) over
// a negative link and 2 (−1) over a positive link. Each in-link is chosen
// with probability 1/3, and the node ends in exactly s(u,3)·x_u for the
// chosen u. Node 5 has one active in-neighbour (seed 0) and one that never
// activates (node 4, no in-links), so it adopts with probability 1/2 and
// otherwise stays inactive.
func TestVoterAdoptionFrequency(t *testing.T) {
	signs := []sgraph.Sign{sgraph.Positive, sgraph.Negative, sgraph.Positive} // s(u,3), u = 0..2
	b := sgraph.NewBuilder(6)
	for u, s := range signs {
		b.AddEdge(u, 3, s, 1)
	}
	b.AddEdge(0, 5, sgraph.Negative, 1)
	b.AddEdge(4, 5, sgraph.Positive, 1)
	g := b.MustBuild()
	seeds := []int{0, 1, 2}
	states := []sgraph.State{sgraph.StatePositive, sgraph.StatePositive, sgraph.StateNegative}

	m := &voterModel{cfg: VoterConfig{Rounds: 1}}
	rng := xrand.New(17)
	var via [3]int
	adopted5 := 0
	for i := 0; i < mcRuns; i++ {
		c, err := m.Run(g, seeds, states, rng)
		if err != nil {
			t.Fatal(err)
		}
		u := c.ActivatedBy[3]
		if u < 0 || u > 2 {
			t.Fatalf("run %d: node 3 activated by %d, want one of its in-neighbours 0-2", i, u)
		}
		want := sgraph.StateOf(states[u], signs[u])
		if c.States[3] != want {
			t.Fatalf("run %d: node 3 ended %v via %d, want s(u,v)·x_u = %v", i, c.States[3], u, want)
		}
		via[u]++
		switch c.States[5] {
		case sgraph.StateInactive:
		case sgraph.StateNegative:
			adopted5++
		default:
			t.Fatalf("run %d: node 5 ended %v, want inactive or −1", i, c.States[5])
		}
		for j, s := range seeds {
			if c.States[s] != states[j] {
				t.Fatalf("run %d: seed %d changed to %v", i, s, c.States[s])
			}
		}
	}
	for u, n := range via {
		checkFrequency(t, fmt.Sprintf("node 3 via in-link from %d", u), n, 1.0/3)
	}
	checkFrequency(t, "node 5 adopts from its one active in-neighbour", adopted5, 0.5)
}

// TestVoterChainFrequency runs four rounds on a 5-node signed graph with
// opinion churn (nodes 2 and 3 listen to each other and to opposed seeds,
// and seed 0 has an in-link it must ignore) and checks the frequency of every joint outcome against its exact
// probability, propagated round by round from the rule. Because each node
// picks independently given the start-of-round states, the exact next-
// round distribution is the product of per-node distributions; updates
// are synchronous, so a node never hears a neighbour's same-round choice.
func TestVoterChainFrequency(t *testing.T) {
	b := sgraph.NewBuilder(5)
	b.AddEdge(0, 2, sgraph.Positive, 1)
	b.AddEdge(3, 2, sgraph.Negative, 1)
	b.AddEdge(1, 3, sgraph.Positive, 1)
	b.AddEdge(2, 3, sgraph.Positive, 1)
	b.AddEdge(4, 3, sgraph.Negative, 1)
	b.AddEdge(2, 4, sgraph.Negative, 1)
	b.AddEdge(3, 0, sgraph.Negative, 1) // into a seed, which must not listen
	g := b.MustBuild()
	seeds := []int{0, 1}
	states := []sgraph.State{sgraph.StatePositive, sgraph.StateNegative}
	const rounds = 4

	exact := voterExact(g, seeds, states, rounds)
	m := &voterModel{cfg: VoterConfig{Rounds: rounds}}
	rng := xrand.New(19)
	counts := map[string]int{}
	for i := 0; i < mcRuns; i++ {
		c, err := m.Run(g, seeds, states, rng)
		if err != nil {
			t.Fatal(err)
		}
		key := fmt.Sprint(c.States)
		if exact[key] == 0 {
			t.Fatalf("run %d: outcome %s has probability 0", i, key)
		}
		counts[key]++
	}
	if len(exact) < 10 {
		t.Fatalf("only %d possible outcomes; the graph no longer exercises churn", len(exact))
	}
	for key, p := range exact {
		checkFrequency(t, "outcome "+key, counts[key], p)
	}
}

// voterExact returns the exact distribution of the joint state after the
// given number of voter rounds, keyed by fmt.Sprint of the state vector.
func voterExact(g *sgraph.Graph, seeds []int, states []sgraph.State, rounds int) map[string]float64 {
	n := g.NumNodes()
	isSeed := make([]bool, n)
	start := make([]sgraph.State, n)
	for i, s := range seeds {
		isSeed[s] = true
		start[s] = states[i]
	}
	type outcome struct {
		x []sgraph.State
		p float64
	}
	dist := []outcome{{start, 1}}
	for r := 0; r < rounds; r++ {
		merged := map[string]*outcome{}
		for _, o := range dist {
			// Per-node next-state distribution given the round-start state o.x.
			next := make([]map[sgraph.State]float64, n)
			for v := 0; v < n; v++ {
				next[v] = map[sgraph.State]float64{}
				d := g.InDegree(v)
				if isSeed[v] || d == 0 {
					next[v][o.x[v]] = 1
					continue
				}
				g.In(v, func(e sgraph.Edge) {
					if xu := o.x[e.From]; xu.Active() {
						next[v][sgraph.StateOf(xu, e.Sign)] += 1 / float64(d)
					} else {
						next[v][o.x[v]] += 1 / float64(d)
					}
				})
			}
			// Product over nodes.
			partial := []outcome{{nil, o.p}}
			for v := 0; v < n; v++ {
				var grown []outcome
				for _, q := range partial {
					for s, ps := range next[v] {
						x := append(append([]sgraph.State(nil), q.x...), s)
						grown = append(grown, outcome{x, q.p * ps})
					}
				}
				partial = grown
			}
			for _, q := range partial {
				key := fmt.Sprint(q.x)
				if m, ok := merged[key]; ok {
					m.p += q.p
				} else {
					merged[key] = &outcome{q.x, q.p}
				}
			}
		}
		dist = dist[:0]
		for _, o := range merged {
			dist = append(dist, *o)
		}
	}
	out := make(map[string]float64, len(dist))
	for _, o := range dist {
		out[fmt.Sprint(o.x)] = o.p
	}
	return out
}
