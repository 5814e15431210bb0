// Package tracefile persists simulated datacenter traces to disk, so the
// expensive simulation runs once and every tool (cmd/experiments,
// cmd/fingerprint, notebooks built on the library) replays the same data.
//
// The format is a small header (magic + version) followed by a gzip-
// compressed gob stream. It is an internal interchange format, not a
// public contract: the version is bumped whenever the trace layout
// changes, and loading a mismatched version fails loudly rather than
// misreading data.
package tracefile

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"

	"dcfp/internal/dcsim"
)

// magic identifies dcfp trace files.
var magic = [8]byte{'D', 'C', 'F', 'P', 'T', 'R', 'C', '1'}

// version is the trace layout version.
const version uint32 = 1

// Save writes the trace to path atomically: into a temporary file of its
// own in path's directory, synced to disk, then renamed into place. A crash
// leaves either the previous file or the whole new one under path, and
// concurrent saves to one path never share a temporary file.
func Save(path string, tr *dcsim.Trace) (err error) {
	if tr == nil {
		return fmt.Errorf("tracefile: nil trace")
	}
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(f.Name())
		}
	}()
	// CreateTemp makes the file private; a trace is shared data.
	if err = f.Chmod(0o644); err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if _, err = bw.Write(magic[:]); err != nil {
		return err
	}
	if err = binary.Write(bw, binary.LittleEndian, version); err != nil {
		return err
	}
	zw := gzip.NewWriter(bw)
	if err = gob.NewEncoder(zw).Encode(tr); err != nil {
		return fmt.Errorf("tracefile: encoding trace: %w", err)
	}
	if err = zw.Close(); err != nil {
		return err
	}
	if err = bw.Flush(); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}

// Load reads a trace written by Save.
func Load(path string) (*dcsim.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	var gotMagic [8]byte
	if _, err := br.Read(gotMagic[:]); err != nil {
		return nil, fmt.Errorf("tracefile: reading header: %w", err)
	}
	if gotMagic != magic {
		return nil, fmt.Errorf("tracefile: %s is not a dcfp trace file", path)
	}
	var gotVersion uint32
	if err := binary.Read(br, binary.LittleEndian, &gotVersion); err != nil {
		return nil, fmt.Errorf("tracefile: reading version: %w", err)
	}
	if gotVersion != version {
		return nil, fmt.Errorf("tracefile: version %d, this build reads %d", gotVersion, version)
	}
	zr, err := gzip.NewReader(br)
	if err != nil {
		return nil, fmt.Errorf("tracefile: opening compressed stream: %w", err)
	}
	defer zr.Close()
	var tr dcsim.Trace
	if err := gob.NewDecoder(zr).Decode(&tr); err != nil {
		return nil, fmt.Errorf("tracefile: decoding trace: %w", err)
	}
	return &tr, nil
}
