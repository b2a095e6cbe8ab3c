package config

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Snapshot is a parsed set of device configurations keyed by hostname —
// the vendor-independent network model the controller's parser produces.
type Snapshot struct {
	Devices map[string]*Device
}

// Clone returns a snapshot with its own device map over the same parsed
// models: the starting point for applying a delta, which then replaces only
// the devices that changed. Models are immutable once parsed, so sharing
// them is safe — and DiffSnapshots recognizes a shared model as unchanged
// without fingerprinting it.
func (s *Snapshot) Clone() *Snapshot {
	c := &Snapshot{Devices: make(map[string]*Device, len(s.Devices))}
	for name, dev := range s.Devices {
		c.Devices[name] = dev
	}
	return c
}

// DeviceNames returns hostnames in sorted order.
func (s *Snapshot) DeviceNames() []string {
	names := make([]string, 0, len(s.Devices))
	for n := range s.Devices {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ParseTexts parses a set of configuration texts keyed by filename. All
// files are parsed even when some fail; the error aggregates every problem.
func ParseTexts(texts map[string]string) (*Snapshot, error) {
	snap := &Snapshot{Devices: make(map[string]*Device, len(texts))}
	var all ParseErrors
	names := make([]string, 0, len(texts))
	for n := range texts {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		dev, err := Parse(name, texts[name])
		if err != nil {
			if es, ok := err.(ParseErrors); ok {
				all = append(all, es...)
			} else {
				all = append(all, &ParseError{File: name, Msg: err.Error()})
			}
		}
		if dev == nil {
			continue
		}
		if prev, dup := snap.Devices[dev.Hostname]; dup {
			all = append(all, &ParseError{File: name,
				Msg: fmt.Sprintf("duplicate hostname %q (also defined in another file: %v)", dev.Hostname, prev.Hostname)})
			continue
		}
		snap.Devices[dev.Hostname] = dev
	}
	if len(all) > 0 {
		return snap, all
	}
	return snap, nil
}

// ParseDirectory parses every *.cfg file in dir.
func ParseDirectory(dir string) (*Snapshot, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("config: reading %s: %w", dir, err)
	}
	texts := make(map[string]string)
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".cfg") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, fmt.Errorf("config: reading %s: %w", e.Name(), err)
		}
		texts[e.Name()] = string(data)
	}
	if len(texts) == 0 {
		return nil, fmt.Errorf("config: no .cfg files in %s", dir)
	}
	return ParseTexts(texts)
}

// WriteDirectory writes configuration texts (hostname → config text) as
// hostname.cfg files under dir, creating it if needed. Synthesis tools use
// this so generated networks round-trip through the real parser.
func WriteDirectory(dir string, texts map[string]string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for name, text := range texts {
		if err := os.WriteFile(filepath.Join(dir, name+".cfg"), []byte(text), 0o644); err != nil {
			return err
		}
	}
	return nil
}
