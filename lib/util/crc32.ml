(* Built at module initialisation, not lazily: the WAL's group-commit
   leader and the snapshot writer checksum on different domains, and two
   domains forcing one lazy value at once raise [CamlinternalLazy.Undefined]. *)
let table =
  Array.init 256 (fun i ->
      let c = ref i in
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let sub s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Crc32.sub: range outside the string";
  let c = ref 0xffffffff in
  for i = pos to pos + len - 1 do
    c := table.((!c lxor Char.code (String.unsafe_get s i)) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xffffffff

let string s = sub s ~pos:0 ~len:(String.length s)
