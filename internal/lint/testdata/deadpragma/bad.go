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
