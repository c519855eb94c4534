package preprocess

import (
	"encoding/json"
	"fmt"
	"io"

	"clmids/internal/modality"
)

// state is the serialized form of a fitted Preprocessor.
type state struct {
	Format string         `json:"format"`
	Config Config         `json:"config"`
	Freq   map[string]int `json:"freq"`
	Total  int            `json:"total"`
}

const stateFormat = "clmids-preprocess v1"

// Save writes the fitted filter state as JSON.
func (p *Preprocessor) Save(w io.Writer) error {
	st := state{Format: stateFormat, Config: p.cfg, Freq: p.freq, Total: p.total}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(&st); err != nil {
		return fmt.Errorf("preprocess: encoding state: %w", err)
	}
	return nil
}

// Load restores a Preprocessor written by Save.
func Load(r io.Reader) (*Preprocessor, error) {
	var st state
	if err := json.NewDecoder(r).Decode(&st); err != nil {
		return nil, fmt.Errorf("preprocess: decoding state: %w", err)
	}
	if st.Format != stateFormat {
		return nil, fmt.Errorf("preprocess: unknown state format %q", st.Format)
	}
	if err := modality.Validate(st.Config.Modality); err != nil {
		return nil, fmt.Errorf("preprocess: %w", err)
	}
	p := New(st.Config)
	if st.Freq != nil {
		p.freq = st.Freq
	}
	p.total = st.Total
	p.fitted = true
	return p, nil
}
