package deps

// Feature encoding of dependence sequences for the neural network.
//
// The paper feeds the network "the sequence of past few RAW dependences"
// where each dependence is a pair of instruction addresses plus an
// inter/intra-thread label, and limits the network to M = 10 inputs, so
// with sequences up to N = 5 each dependence gets two input features.
// The default encoder spends them as:
//
//   - f1: a normalized hash of the store address S. Keeping S in its own
//     dimension is what gives the network the paper's similarity
//     property (Section II-C): new code that consumes data produced by
//     known stores lands near trained points, while negative examples —
//     which by construction have the wrong S — move along exactly this
//     axis.
//   - f2: a normalized hash of the load address L folded into half the
//     range, with the inter/intra label selecting the half.
const FeaturesPerDep = 2

// Encoder converts a dependence sequence into a feature vector. dst is
// reused when large enough. Implementations must be pure.
type Encoder func(s Sequence, dst []float64) []float64

// EncodeDefault is the production encoder described above. On the
// classification hot path dst arrives pre-sized, so the grow-once make
// below never runs at steady state.
//
//act:noalloc
func EncodeDefault(s Sequence, dst []float64) []float64 {
	need := len(s) * FeaturesPerDep
	if cap(dst) < need {
		dst = make([]float64, need) //act:alloc-ok grow-once when dst is undersized
	}
	dst = dst[:need]
	for i, d := range s {
		dst[2*i] = norm(mix(d.S))
		f2 := norm(mix(d.L)) / 2
		if d.Inter {
			f2 += 0.5
		}
		dst[2*i+1] = f2
	}
	return dst
}

// EncodePairHash is the ablation encoder: one feature per dependence, a
// hash of the (S, L, label) triple. It can only memorize exact pairs, so
// it forfeits the similarity property; the ablation bench quantifies the
// cost.
//
//act:noalloc
func EncodePairHash(s Sequence, dst []float64) []float64 {
	if cap(dst) < len(s) {
		dst = make([]float64, len(s)) //act:alloc-ok grow-once when dst is undersized
	}
	dst = dst[:len(s)]
	for i, d := range s {
		h := mix(d.S*0x9e3779b97f4a7c15 ^ d.L)
		if d.Inter {
			h = mix(h + 1)
		}
		dst[i] = norm(h)
	}
	return dst
}

// InputLen returns the network input width for sequences of length n
// under the given encoder.
func InputLen(enc Encoder, n int) int {
	probe := make(Sequence, n)
	return len(enc(probe, nil))
}

// mix is splitmix64's finalizer: a cheap, well-distributed 64-bit hash.
//
//act:noalloc
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// norm maps a hash into (0.05, 0.95): keeping features away from the
// sigmoid's flat tails speeds up backpropagation.
//
//act:noalloc
func norm(h uint64) float64 {
	return 0.05 + 0.9*float64(h>>11)/float64(uint64(1)<<53)
}
