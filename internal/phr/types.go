// Package phr implements the fine-grained Personal Health Record
// disclosure service of the paper's Section 5 on top of the
// type-and-identity PRE scheme: patients categorize their records by
// privacy level, store them encrypted, and install per-category proxy keys
// at proxies of their choosing. Corrupting the proxy for one category
// exposes at most that category (experiment E6 quantifies this).
//
// The package is a small database system: an encrypted record store with
// primary and secondary indexes, per-category proxy servers with grant
// tables, an append-only audit log, and a disclosure service that wires
// them together.
package phr

import (
	"fmt"
	"time"

	"typepre/internal/core"
	"typepre/internal/hybrid"
)

// Category is a PHR privacy category; it doubles as the PRE message type.
// The paper's §5 example uses three (t1, t2, t3); real PHRs have more.
type Category = core.Type

// The categories of the §5 scenario plus common PHR extensions.
const (
	CategoryIllnessHistory Category = "illness-history" // the paper's t1
	CategoryFoodStatistics Category = "food-statistics" // the paper's t2
	CategoryEmergency      Category = "emergency"       // the paper's t3
	CategoryMedication     Category = "medication"
	CategoryLabResults     Category = "lab-results"
	CategoryVaccination    Category = "vaccination"
)

// StandardCategories lists the built-in categories in a stable order.
func StandardCategories() []Category {
	return []Category{
		CategoryIllnessHistory,
		CategoryFoodStatistics,
		CategoryEmergency,
		CategoryMedication,
		CategoryLabResults,
		CategoryVaccination,
	}
}

// BaseCategory maps a sealed wire type back to its logical category by
// stripping any rotation-epoch suffix: records, grants and audit entries
// are always keyed by the logical category, whatever epoch the underlying
// cryptography is at.
func BaseCategory(t core.Type) Category {
	return Category(core.BaseType(t))
}

// EncryptedRecord is the at-rest form: metadata in clear (needed for
// indexing and routing), body sealed with the hybrid PRE scheme.
type EncryptedRecord struct {
	ID        string
	PatientID string
	Category  Category
	CreatedAt time.Time
	Sealed    *hybrid.Ciphertext
}

// Clone returns a shallow copy safe for concurrent reads (the sealed
// ciphertext is immutable by convention).
func (r *EncryptedRecord) Clone() *EncryptedRecord {
	cp := *r
	return &cp
}

// recordID names a patient's n-th record (Patient.AddRecord).
func recordID(patientID string, n int) string {
	return fmt.Sprintf("%s/rec-%06d", patientID, n)
}
