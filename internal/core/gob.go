package core

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"dcfp/internal/metrics"
)

// Gob support for the crisis store, so a Monitor checkpoint carries the full
// crisis history — every crisis's raw quantile rows — across a process
// restart. The fingerprint cache is deliberately not persisted: it is a pure
// memoization keyed by the monitor's thresholds generation and repopulates
// on the first identification after restore.

type gobStoredCrisis struct {
	ID            string
	Label         string
	DetectedStart metrics.Epoch
	Rows          [][]float64
}

// Stores written while the store also had a frozen mode carry a mode flag
// and a per-crisis frozen state; gob skips both, so those checkpoints decode
// into the same crises.
type gobStore struct {
	Width  int
	Crises []gobStoredCrisis
}

// GobEncode serializes the store's width and crisis records.
func (s *Store) GobEncode() ([]byte, error) {
	g := gobStore{Width: s.width}
	for _, c := range s.crises {
		g.Crises = append(g.Crises, gobStoredCrisis{
			ID:            c.ID,
			Label:         c.Label,
			DetectedStart: c.DetectedStart,
			Rows:          c.Rows,
		})
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(g); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// GobDecode restores the store, validating that every crisis's rows match
// the recorded width. The fingerprint cache starts empty.
func (s *Store) GobDecode(p []byte) error {
	var g gobStore
	if err := gob.NewDecoder(bytes.NewReader(p)).Decode(&g); err != nil {
		return err
	}
	if g.Width < 0 {
		return fmt.Errorf("core: decoded store width %d negative", g.Width)
	}
	crises := make([]StoredCrisis, 0, len(g.Crises))
	for i, c := range g.Crises {
		if c.ID == "" {
			return fmt.Errorf("core: decoded crisis %d has no ID", i)
		}
		if len(c.Rows) == 0 {
			return fmt.Errorf("core: decoded crisis %q has no rows", c.ID)
		}
		for _, r := range c.Rows {
			if len(r) != g.Width {
				return fmt.Errorf("core: decoded crisis %q row width %d, store width %d", c.ID, len(r), g.Width)
			}
		}
		crises = append(crises, StoredCrisis{
			ID:            c.ID,
			Label:         c.Label,
			DetectedStart: c.DetectedStart,
			Rows:          c.Rows,
		})
	}
	s.width = g.Width
	s.crises = crises
	s.cacheGen, s.cacheRel = 0, 0
	s.cache = nil
	s.cacheHits, s.cacheMiss = 0, 0
	return nil
}
