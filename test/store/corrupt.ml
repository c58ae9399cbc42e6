(* corrupt SRC DST SECTION BYTE MASK: copy the compiled store SRC to DST
   with byte BYTE of section SECTION XOR-ed with MASK. The section's
   offset comes from the header's section table (one (offset, length)
   pair of 64-bit words per section, from byte 80). *)

let () =
  match Sys.argv with
  | [| _; src; dst; section; byte; mask |] ->
      let ic = open_in_bin src in
      let b = Bytes.of_string (really_input_string ic (in_channel_length ic)) in
      close_in ic;
      let off =
        Int64.to_int (Bytes.get_int64_le b (80 + (16 * int_of_string section)))
      in
      let pos = off + int_of_string byte in
      Bytes.set b pos
        (Char.chr (Char.code (Bytes.get b pos) lxor int_of_string mask));
      let oc = open_out_bin dst in
      output_bytes oc b;
      close_out oc
  | _ ->
      prerr_endline "usage: corrupt SRC DST SECTION BYTE MASK";
      exit 2
