package model

import (
	"encoding/gob"
	"fmt"
	"io"
	"math/rand"
)

// snapshot is the gob-serialized form of a Model: the architecture plus
// every parameter matrix in Params() order.
type snapshot struct {
	Format string
	Cfg    Config
	Shapes [][2]int
	Params [][]float64
}

const snapshotFormat = "clmids-model v1"

// Save writes the model to w. The format is self-describing: Load
// reconstructs the architecture from the embedded Config.
func (m *Model) Save(w io.Writer) error {
	params := m.Params()
	snap := snapshot{
		Format: snapshotFormat,
		Cfg:    m.Encoder.cfg,
		Shapes: make([][2]int, len(params)),
		Params: make([][]float64, len(params)),
	}
	for i, p := range params {
		snap.Shapes[i] = [2]int{p.Val.Rows, p.Val.Cols}
		snap.Params[i] = p.Val.Data
	}
	if err := gob.NewEncoder(w).Encode(&snap); err != nil {
		return fmt.Errorf("model: encoding snapshot: %w", err)
	}
	return nil
}

// Load reads a model previously written by Save. The snapshot is checked
// against the architecture its Config declares before anything is
// allocated: every tensor must be present, shaped and full, so the model
// built here holds no more values than the input bytes carry.
func Load(r io.Reader) (*Model, error) {
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("model: decoding snapshot: %w", err)
	}
	if snap.Format != snapshotFormat {
		return nil, fmt.Errorf("model: unknown snapshot format %q", snap.Format)
	}
	if err := snap.Cfg.Validate(); err != nil {
		return nil, err
	}
	// Every block holds several tensors, so a Layers count above the
	// tensor count is short before the shape list is even built.
	if snap.Cfg.Layers > len(snap.Params) {
		return nil, fmt.Errorf("model: snapshot has %d tensors for %d layers", len(snap.Params), snap.Cfg.Layers)
	}
	want := paramShapes(snap.Cfg)
	if len(snap.Params) != len(want) || len(snap.Shapes) != len(want) {
		return nil, fmt.Errorf("model: snapshot has %d tensors and %d shapes, architecture needs %d",
			len(snap.Params), len(snap.Shapes), len(want))
	}
	for i, shape := range want {
		if snap.Shapes[i] != shape {
			return nil, fmt.Errorf("model: tensor %d shape %v, want %v", i, snap.Shapes[i], shape)
		}
		// Divide rather than multiply: rows×cols of a lying Config can
		// overflow int. Validate keeps every cols positive.
		if n := len(snap.Params[i]); n%shape[1] != 0 || n/shape[1] != shape[0] {
			return nil, fmt.Errorf("model: tensor %d has %d values, want %dx%d", i, n, shape[0], shape[1])
		}
	}
	// The RNG is irrelevant: every parameter is overwritten below.
	m, err := NewModel(snap.Cfg, rand.New(rand.NewSource(0)))
	if err != nil {
		return nil, err
	}
	for i, p := range m.Params() {
		copy(p.Val.Data, snap.Params[i])
	}
	return m, nil
}

// paramShapes lists the [rows, cols] of every tensor Model.Params holds
// for cfg, in Params order, without allocating the tensors themselves.
func paramShapes(cfg Config) [][2]int {
	h, f := cfg.Hidden, cfg.FFN
	hh, vec := [2]int{h, h}, [2]int{1, h}
	shapes := [][2]int{{cfg.VocabSize, h}, {cfg.MaxSeqLen, h}, vec, vec}
	for range cfg.Layers {
		shapes = append(shapes,
			hh, vec, hh, vec, hh, vec, hh, vec, // WQ, WK, WV, WO
			vec, vec, // AttnNorm
			[2]int{h, f}, [2]int{1, f}, [2]int{f, h}, vec, // FF1, FF2
			vec, vec) // FFNorm
	}
	// The MLM head: Dense, Norm, output bias.
	return append(shapes, hh, vec, vec, vec, [2]int{1, cfg.VocabSize})
}
