package ppa

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// JSON machine configuration: every knob of the simulated machine (Table 2
// and beyond) can be captured in, or overridden from, a JSON document.
// Unmarshalling applies on top of the defaults, so a config file needs to
// mention only the fields it changes:
//
//	{"NVM": {"WPQEntries": 8}, "Pipeline": {"ROBSize": 128}}

// MarshalMachineConfig renders a machine configuration as indented JSON.
func MarshalMachineConfig(cfg *MachineConfig) ([]byte, error) {
	return json.MarshalIndent(cfg, "", "  ")
}

// MachineCustomizer parses a JSON override document and returns a
// Customize hook that applies it on top of whatever defaults the run
// assembles. A key that names no machine field is an error, so a
// misspelled or removed knob cannot load as a no-op.
func MachineCustomizer(data []byte) (func(*MachineConfig), error) {
	// Validate the document eagerly so errors surface at load time.
	var probe MachineConfig
	if err := decodeMachineConfig(data, &probe); err != nil {
		return nil, fmt.Errorf("ppa: bad machine config: %w", err)
	}
	return func(cfg *MachineConfig) {
		// Decode onto the assembled defaults: absent fields keep them.
		// The probe decoded the same document, so this cannot fail.
		_ = decodeMachineConfig(data, cfg)
	}, nil
}

// decodeMachineConfig decodes one JSON document onto cfg, rejecting
// unknown keys and trailing data.
func decodeMachineConfig(data []byte, cfg *MachineConfig) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(cfg); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after the document")
	}
	return nil
}

// MachineCustomizerFromFile loads a JSON override document from disk.
func MachineCustomizerFromFile(path string) (func(*MachineConfig), error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return MachineCustomizer(data)
}

// DefaultMachineConfigJSON returns the fully assembled Table 2 machine for
// n cores under a scheme as JSON — a template for override files.
func DefaultMachineConfigJSON(n int, scheme Scheme) ([]byte, error) {
	sch, err := SchemeConfig(scheme)
	if err != nil {
		return nil, err
	}
	cfg := RunConfig{}.machineConfig(n, sch)
	return MarshalMachineConfig(&cfg)
}
