// Package deadpragma is the golden fixture for the suppression
// meta-check: pragmas naming checks that do not fire at their scope are
// themselves findings. The code below is deliberately clean under every
// real check, so the only diagnostics are about the pragmas.
package deadpragma

// addClean does nothing a check cares about; the pragma above it is dead.
func addClean(a, b int) int {
	//canonvet:ignore ringcmp -- leftover from a refactor; nothing circular here // want `stale //canonvet:ignore: check "ringcmp" no longer fires at this scope`
	return a + b
}

// typo'd check names are flagged no matter what.
func typoPragma(a, b int) int {
	//canonvet:ignore ringcmpp -- misspelled check name // want `names unknown check "ringcmpp"`
	return a - b
}

// a dead blanket suppression is the worst kind: it hides future findings of
// every check. Judged only when the full check set runs.
func blanket(a int) int {
	//canonvet:ignore all -- silence everything // want `stale //canonvet:ignore all: no check fires at this scope`
	return a * 2
}

// the v3 value-flow checks participate in staleness like any other: a
// pragma naming one of them on clean code is dead weight.
func pooledClean(a int) int {
	//canonvet:ignore poolescape -- leftover: this helper stopped pooling long ago // want `stale //canonvet:ignore: check "poolescape" no longer fires at this scope`
	return a + 1
}

func publishClean(a int) int {
	//canonvet:ignore publishrace -- leftover: the snapshot is built elsewhere now // want `stale //canonvet:ignore: check "publishrace" no longer fires at this scope`
	return a + 2
}

func counterClean(a int) int {
	//canonvet:ignore atomicmix -- leftover: the counter went fully atomic // want `stale //canonvet:ignore: check "atomicmix" no longer fires at this scope`
	return a + 3
}

func barrierClean(a int) int {
	//canonvet:ignore durabilityerr -- leftover: the barrier moved into the store // want `stale //canonvet:ignore: check "durabilityerr" no longer fires at this scope`
	return a + 4
}
