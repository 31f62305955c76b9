package sim

// State signatures. Every component the engine ticks exposes
// StateSig() uint64, a cheap order-sensitive hash of its observable
// state. The sanitize engine (internal/core) snapshots the signatures
// at the start of a window the wake hints claim is idle, then steps
// through the window and re-hashes after every cycle: any difference
// proves a hint unsound and pins the violation to a cycle and a
// component. Signatures are accumulated FNV-1a style, a word per step:
//
//	h := sim.SigSeed
//	h = sim.MixSig(h, uint64(x))
//
// A signature only needs to change whenever a tick changed state that
// future behavior depends on — it does not need to be collision-free,
// just cheap and sensitive to the state transitions Tick performs.

// SigSeed is the accumulation start value (the FNV-1a 64-bit offset
// basis).
const SigSeed uint64 = 14695981039346656037

// sigPrime is the FNV-1a 64-bit prime.
const sigPrime uint64 = 1099511628211

// MixSig folds v into the signature h, a word at a time: each step is a
// bijection on h, so one changed value always changes the result. The
// sanitizer signs every sleeping component on every stepped cycle, which
// is why this is three operations and not FNV's eight rounds.
func MixSig(h, v uint64) uint64 {
	h = (h ^ v) * sigPrime
	return h ^ h>>32
}

// MixSigBool folds a boolean into the signature h.
func MixSigBool(h uint64, b bool) uint64 {
	if b {
		return MixSig(h, 1)
	}
	return MixSig(h, 0)
}
