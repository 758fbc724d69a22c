// Command codeversion prints resultstore.CodeVersion twice; stamp lets a
// test build two binaries that differ only in one string.
package main

import (
	"fmt"

	"provirt/internal/resultstore"
)

var stamp string

func main() { fmt.Println(stamp, resultstore.CodeVersion(), resultstore.CodeVersion()) }
