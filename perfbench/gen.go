package main

import (
	"fmt"
	"math"
	"math/rand"

	"kalmanstream/internal/predictor"
	"kalmanstream/internal/stream"
)

// kind is one generator family of the input mix, with the predictor spec
// its gate and replica share (the same pairing cmd/kfsource uses) and the
// δ that makes roughly one tick in six ship a correction.
type kind struct {
	name  string
	spec  predictor.Spec
	delta float64
	gen   func(seed int64, n int64) stream.Stream
}

// kinds is the five-way input mix. Stream i is of kind i%5. The δ values
// were calibrated on 8 seeds × 4096 ticks against the kfsource pairings;
// README.md lists the measured correction rate of each.
var kinds = []kind{
	{
		name:  "sine",
		spec:  kalman(predictor.ModelConstantVelocity, 0.01, 0.04),
		delta: 0.50,
		gen: func(seed, n int64) stream.Stream {
			phase := rand.New(rand.NewSource(seed)).Float64() * 2 * math.Pi
			return stream.NewSine(seed, 50, 10, 300, phase, 0.2, n)
		},
	},
	{
		name:  "random-walk",
		spec:  kalman(predictor.ModelRandomWalk, 1, 0.01),
		delta: 1.8,
		gen:   func(seed, n int64) stream.Stream { return stream.NewRandomWalk(seed, 0, 1, 0.1, n) },
	},
	{
		name:  "ou",
		spec:  kalman(predictor.ModelRandomWalk, 1, 0.01),
		delta: 1.8,
		gen:   func(seed, n int64) stream.Stream { return stream.NewOU(seed, 50, 0.05, 1, 0.1, n) },
	},
	{
		name:  "network",
		spec:  kalman(predictor.ModelConstantVelocity, 0.5, 1),
		delta: 5.3,
		gen:   func(seed, n int64) stream.Stream { return stream.NewNetworkLoad(seed, n) },
	},
	{
		name:  "gbm",
		spec:  kalman(predictor.ModelConstantVelocity, 0.05, 0.01),
		delta: 0.73,
		gen:   func(seed, n int64) stream.Stream { return stream.NewGBM(seed, 100, 0.00002, 0.003, 0.01, n) },
	},
}

func kalman(model predictor.ModelKind, q, r float64) predictor.Spec {
	return predictor.Spec{Kind: predictor.KindKalman,
		Model: predictor.ModelSpec{Kind: model, Q: q, R: r}}
}

// input is one stream's generated measurements. The load generator
// replays values cyclically: the measurement at tick t is values[t%len].
type input struct {
	id     string
	kind   *kind
	values []float64
}

func (in *input) at(tick int64) float64 { return in.values[tick%int64(len(in.values))] }

// makeInputs generates n streams of block ticks each from the workload
// seed. The same seed always yields the same inputs.
func makeInputs(seed int64, n, block int) []*input {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*input, n)
	for i := range out {
		k := &kinds[i%len(kinds)]
		g := k.gen(rng.Int63(), int64(block))
		vals := make([]float64, 0, block)
		for {
			p, ok := g.Next()
			if !ok {
				break
			}
			vals = append(vals, p.Value[0])
		}
		out[i] = &input{id: fmt.Sprintf("%s-%05d", k.name, i), kind: k, values: vals}
	}
	return out
}
