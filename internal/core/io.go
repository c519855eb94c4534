package core

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// File names inside a saved pipeline directory.
const (
	preprocessFile = "preprocess.json"
	tokenizerFile  = "tokenizer.txt"
	modelFile      = "model.gob"
)

// SaveDir persists the trained pipeline (filter state, tokenizer, model)
// into a directory, creating it if needed.
func (p *Pipeline) SaveDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("core: creating %s: %w", dir, err)
	}
	if err := writeFile(filepath.Join(dir, preprocessFile), p.Pre.Save); err != nil {
		return err
	}
	if err := writeFile(filepath.Join(dir, tokenizerFile), p.Tok.Save); err != nil {
		return err
	}
	return writeFile(filepath.Join(dir, modelFile), p.Model.Save)
}

func writeFile(path string, save func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("core: creating %s: %w", path, err)
	}
	if err := save(f); err != nil {
		f.Close()
		return fmt.Errorf("core: writing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("core: closing %s: %w", path, err)
	}
	return nil
}
