package corpus

import "clmids/internal/modality"

// The shell generator moved to internal/modality when modalities became
// pluggable; these forwarders keep the original corpus-level API for the
// experiment harness and the public facade.

// BenignCommandNames lists the command names the benign shell generator can
// emit; the pre-processing frequency filter should learn approximately this
// set.
func BenignCommandNames() []string { return modality.ShellBenignCommandNames() }

// TableIIIPairs returns the paper's Table III (in-box, out-of-box) example
// pairs. Used by the qualitative analyses (§V-C) and the generalization
// experiment (E6).
func TableIIIPairs() [][2]string { return modality.TableIIIPairs() }
