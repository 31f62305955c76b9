package sim

// RNG is a small, fast, deterministic pseudo-random number generator
// (xorshift64*). The simulator never uses math/rand or wall-clock time so
// that every run is reproducible from its configuration seed.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. A zero seed is replaced by a
// fixed non-zero constant because the all-zero state is a fixed point of
// the xorshift transition.
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &RNG{state: seed}
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545f4914f6cdd1d
}

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Mix hashes x with a 64-bit finalizer (splitmix64). It is used wherever
// the simulator needs a stateless, reproducible "random" function of an
// address or index, e.g. synthetic irregular access patterns and the PAE
// address entropy harvest.
func Mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
