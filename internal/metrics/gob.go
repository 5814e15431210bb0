package metrics

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// gobQuantileTrack mirrors QuantileTrack for encoding: the epochs' rows
// flat, one after another, whatever the block size.
type gobQuantileTrack struct {
	NumMetrics int
	Data       []float64
}

// GobEncode implements gob.GobEncoder, so traces holding tracks can be
// persisted to disk.
func (t *QuantileTrack) GobEncode() ([]byte, error) {
	data := make([]float64, 0, t.epochs*t.numMetrics*NumQuantiles)
	for e := 0; e < t.epochs; e++ {
		data = append(data, t.row(e)...)
	}
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(gobQuantileTrack{
		NumMetrics: t.numMetrics,
		Data:       data,
	})
	if err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// GobDecode implements gob.GobDecoder.
func (t *QuantileTrack) GobDecode(b []byte) error {
	var g gobQuantileTrack
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&g); err != nil {
		return err
	}
	if g.NumMetrics <= 0 {
		return fmt.Errorf("metrics: decoded track has %d metrics", g.NumMetrics)
	}
	if len(g.Data)%(g.NumMetrics*NumQuantiles) != 0 {
		return fmt.Errorf("metrics: decoded track data length %d not a multiple of %d",
			len(g.Data), g.NumMetrics*NumQuantiles)
	}
	*t = QuantileTrack{numMetrics: g.NumMetrics}
	w := g.NumMetrics * NumQuantiles
	t.grow(len(g.Data) / w)
	for e := range t.epochs {
		copy(t.row(e), g.Data[e*w:])
	}
	return nil
}

// GobEncode implements gob.GobEncoder for the catalog.
func (c *Catalog) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(c.names); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// GobDecode implements gob.GobDecoder for the catalog.
func (c *Catalog) GobDecode(b []byte) error {
	var names []string
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&names); err != nil {
		return err
	}
	nc, err := NewCatalog(names)
	if err != nil {
		return err
	}
	*c = *nc
	return nil
}
