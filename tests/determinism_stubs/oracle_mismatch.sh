#!/bin/sh
# A variant that differs from its group's oracle.
echo "digest graph per_request 00000000000000aa"
echo "digest graph session 00000000000000ab"
