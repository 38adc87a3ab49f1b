package snn

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"os"
)

// weightsFile is the serialized form of a network's trainable state: one
// flat float64 slice per weight tensor, in layer order (recurrent layers
// contribute W then R).
type weightsFile struct {
	Name    string
	Tensors [][]float64
}

// weightTensors lists the network's weight tensors in canonical order.
func (n *Network) weightTensors() [][]float64 {
	var out [][]float64
	for _, l := range n.Layers {
		if w := l.Proj.Weights(); w != nil {
			out = append(out, w.Data())
		}
		if r, ok := l.Proj.(*RecurrentProj); ok {
			out = append(out, r.R.Data())
		}
	}
	return out
}

// SaveWeights writes the network's weights to w with encoding/gob.
func (n *Network) SaveWeights(w io.Writer) error {
	return gob.NewEncoder(w).Encode(&weightsFile{Name: n.Name, Tensors: n.weightTensors()})
}

// LoadWeights reads weights previously written by SaveWeights into the
// network, which must have the same name and the identical architecture.
// The whole file is validated first — network name, tensor count, every
// tensor's length, every value finite — and only then copied, so a
// rejected file leaves the network's weights untouched.
func (n *Network) LoadWeights(r io.Reader) error {
	var f weightsFile
	if err := gob.NewDecoder(r).Decode(&f); err != nil {
		return fmt.Errorf("snn: decoding weights: %w", err)
	}
	if f.Name != n.Name {
		return fmt.Errorf("snn: weight file is for network %q, not %q", f.Name, n.Name)
	}
	ts := n.weightTensors()
	if len(f.Tensors) != len(ts) {
		return fmt.Errorf("snn: weight file has %d tensors, network %q expects %d", len(f.Tensors), n.Name, len(ts))
	}
	for i, dst := range ts {
		if len(f.Tensors[i]) != len(dst) {
			return fmt.Errorf("snn: weight tensor %d has %d elements, expected %d", i, len(f.Tensors[i]), len(dst))
		}
		for j, v := range f.Tensors[i] {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("snn: weight tensor %d element %d is %v", i, j, v)
			}
		}
	}
	for i, dst := range ts {
		copy(dst, f.Tensors[i])
	}
	return nil
}

// SaveWeightsFile writes the network's weights to the named file. It
// writes a temp file next to it and renames that into place, so a crash
// mid-write never leaves a truncated weights file behind.
func (n *Network) SaveWeightsFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = n.SaveWeights(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		_ = os.Remove(tmp)
	}
	return err
}

// LoadWeightsFile reads weights from the named file.
func (n *Network) LoadWeightsFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return n.LoadWeights(f)
}
