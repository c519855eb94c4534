package corpus

import "clmids/internal/modality"

// The shell generator moved to internal/modality when modalities became
// pluggable; this forwarder keeps the original corpus-level API for the
// experiment harness and the public facade.

// TableIIIPairs returns the paper's Table III (in-box, out-of-box) example
// pairs. Used by the qualitative analyses (§V-C) and the generalization
// experiment (E6).
func TableIIIPairs() [][2]string { return modality.TableIIIPairs() }
