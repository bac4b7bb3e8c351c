package load

import "math/rand"

// OpClass names one kind of client operation the generator can issue.
type OpClass string

const (
	OpRead    OpClass = "read"    // ranged data read
	OpWrite   OpClass = "write"   // ranged data overwrite
	OpGetattr OpClass = "getattr" // attribute fetch
	OpReaddir OpClass = "readdir" // full directory scan
)

// Mix is one workload: a weighted blend of op classes plus the key
// distribution used to pick target files. With Zipfian set, file choice is
// skewed (rand.Zipf, s=1.2) so a few hot files absorb most of the traffic;
// otherwise files are chosen uniformly.
type Mix struct {
	Weights map[OpClass]int
	Zipfian bool
}

// picker deterministically draws (op class, file, offset) tuples for one
// mix. All randomness flows from the one seeded rng, so a (seed, mix,
// files) tuple replays the identical draw sequence.
type picker struct {
	rng     *rand.Rand
	zipf    *rand.Zipf
	classes []OpClass
	cum     []int
	total   int
	files   int
}

func newPicker(mix Mix, files int, seed int64) *picker {
	p := &picker{rng: rand.New(rand.NewSource(seed)), files: files}
	for class, w := range mix.Weights {
		if w > 0 {
			p.classes = append(p.classes, class)
		}
	}
	// Map iteration order is random; sort for determinism.
	for i := 1; i < len(p.classes); i++ {
		for j := i; j > 0 && p.classes[j] < p.classes[j-1]; j-- {
			p.classes[j], p.classes[j-1] = p.classes[j-1], p.classes[j]
		}
	}
	for _, class := range p.classes {
		p.total += mix.Weights[class]
		p.cum = append(p.cum, p.total)
	}
	if mix.Zipfian {
		p.zipf = rand.NewZipf(p.rng, 1.2, 1, uint64(files-1))
	}
	return p
}

func (p *picker) next() (OpClass, int, int) {
	n := p.rng.Intn(p.total)
	class := p.classes[len(p.classes)-1]
	for i, c := range p.cum {
		if n < c {
			class = p.classes[i]
			break
		}
	}
	var file int
	if p.zipf != nil {
		file = int(p.zipf.Uint64())
	} else {
		file = p.rng.Intn(p.files)
	}
	return class, file, p.rng.Intn(fileSize - opBytes + 1)
}
