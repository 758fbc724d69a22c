package scenario

import (
	"encoding/json"
	"errors"
	"io"
)

// The request decoder DecodeRequest replaced, kept verbatim as
// FuzzDecodeRequest's oracle: one Decode of the whole envelope into a
// struct, the points returned as documents for the caller to lower.

// request is the body `POST /v1/runs` and `privbench -spec` take:
// "points" is a sweep, "spec" shorthand for a one-point sweep.
type request struct {
	Points []Document `json:"points,omitempty"`
	Spec   *Document  `json:"spec,omitempty"`
}

// oracleDecodeRequest strict-decodes one request body from r and returns its
// point documents in order. Exactly one of "spec" and "points" must be
// set, and an unknown key, in the envelope or a point, is an error, so
// a bare Spec document is refused. An error r returns is passed
// through, so a caller can tell its reader's limit from a bad body.
func oracleDecodeRequest(r io.Reader) ([]Document, error) {
	var req request
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, err
	}
	switch {
	case req.Spec != nil && len(req.Points) > 0:
		return nil, errors.New(`"spec" and "points" are mutually exclusive`)
	case req.Spec != nil:
		return []Document{*req.Spec}, nil
	case len(req.Points) == 0:
		return nil, errors.New(`body needs "points" (a sweep) or "spec" (one point)`)
	}
	return req.Points, nil
}
