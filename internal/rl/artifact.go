package rl

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"mcmpart/internal/mcm"
	"mcmpart/internal/nn"
)

// ArtifactVersion is the current policy-artifact schema version. Loaders
// reject files written by incompatible future schemas instead of
// misinterpreting them.
const ArtifactVersion = 1

// Artifact is the versioned on-disk form of a pre-trained policy: the
// network weights, the configuration needed to rebuild the network around
// them, and a fingerprint of the package the policy was trained for. The
// fingerprint is validated on load, so a policy pre-trained for one package
// (say mesh16) cannot silently drive planning on another (say edge36) —
// the action space, chip features, and learned placement priors are all
// package-specific.
type Artifact struct {
	Version int `json:"version"`
	// PackageFingerprint is PackageFingerprint() of the training package.
	PackageFingerprint string `json:"package_fingerprint"`
	// PackageName names the training package for error messages.
	PackageName string `json:"package_name"`
	// Config is the network shape the snapshot requires.
	Config Config `json:"config"`
	// Snapshot holds the policy weights.
	Snapshot nn.Snapshot `json:"snapshot"`
}

// PackageFingerprint returns a stable content hash of a package descriptor.
// Any field of the descriptor participates: chip count, per-chip SRAM and
// compute arrays, link parameters, and topology all change the fingerprint.
func PackageFingerprint(pkg *mcm.Package) string {
	data, err := json.Marshal(pkg)
	if err != nil {
		// Package is a plain data struct; Marshal cannot fail on it.
		panic("rl: fingerprinting package: " + err.Error())
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// SaveArtifact writes the policy as a versioned artifact bound to pkg.
func SaveArtifact(path string, policy *Policy, pkg *mcm.Package) error {
	a := Artifact{
		Version:            ArtifactVersion,
		PackageFingerprint: PackageFingerprint(pkg),
		PackageName:        pkg.Name,
		Config:             policy.Cfg,
		Snapshot:           policy.Snapshot(),
	}
	data, err := json.MarshalIndent(a, "", " ")
	if err != nil {
		return fmt.Errorf("rl: encoding policy artifact: %w", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("rl: writing policy artifact: %w", err)
	}
	return nil
}

// LoadArtifact reads a policy artifact and rebuilds the policy, validating
// that the artifact was trained for exactly the given package. It returns
// clear errors for version mismatches, package mismatches, and corrupt or
// wrong-shape snapshots (see nn.Snapshot.Restore).
func LoadArtifact(path string, pkg *mcm.Package) (*Policy, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("rl: reading policy artifact: %w", err)
	}
	var a Artifact
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("rl: corrupt policy artifact %s: %w", path, err)
	}
	if a.Version != ArtifactVersion {
		return nil, fmt.Errorf("rl: policy artifact %s has version %d, this build reads version %d",
			path, a.Version, ArtifactVersion)
	}
	if got, want := a.PackageFingerprint, PackageFingerprint(pkg); got != want {
		return nil, fmt.Errorf(
			"rl: policy artifact %s was pre-trained for package %q (fingerprint %.12s…), not %q (fingerprint %.12s…); re-run pre-training or load the matching artifact",
			path, a.PackageName, got, pkg.Name, want)
	}
	if a.Config.Chips != pkg.Chips {
		return nil, fmt.Errorf("rl: policy artifact %s has a %d-chip action space for a %d-chip package",
			path, a.Config.Chips, pkg.Chips)
	}
	if a.Config.Hidden <= 0 || a.Config.SAGELayers <= 0 || a.Config.Iterations <= 0 {
		return nil, fmt.Errorf("rl: policy artifact %s has an invalid network shape %+v", path, a.Config)
	}
	if err := a.Snapshot.Validate(); err != nil {
		return nil, fmt.Errorf("rl: policy artifact %s: %w", path, err)
	}
	// No RNG: Restore overwrites every weight, so none is drawn.
	policy := NewPolicy(a.Config, nil)
	if err := policy.Restore(a.Snapshot); err != nil {
		return nil, fmt.Errorf("rl: policy artifact %s: %w", path, err)
	}
	return policy, nil
}
