module provirt

go 1.23
